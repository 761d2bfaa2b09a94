package optimizer

import (
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

// annotatedJoin builds a tiny annotated plan: Join(scanA@LA, scanB@LB)
// where the join may execute at the given locations.
func annotatedJoin(joinExec ...string) (*plan.Node, *plan.Node, *plan.Node) {
	ta := schema.NewTable("A", "da", "LA", 100, schema.Column{Name: "k", Type: expr.TInt})
	tb := schema.NewTable("B", "db", "LB", 1000, schema.Column{Name: "k", Type: expr.TInt})
	a := plan.NewScan(ta, "a", -1)
	a.Kind = plan.TableScan
	a.Card = 100
	a.Exec = plan.NewSiteSet("LA")
	b := plan.NewScan(tb, "b", -1)
	b.Kind = plan.TableScan
	b.Card = 1000
	b.Exec = plan.NewSiteSet("LB")
	j := plan.NewJoin(a, b, expr.NewCmp(expr.EQ, expr.NewCol("a", "k"), expr.NewCol("b", "k")))
	j.Kind = plan.HashJoin
	j.Card = 1000
	j.Exec = plan.NewSiteSet(joinExec...)
	j.ShipT = j.Exec
	return j, a, b
}

func TestSelectSitesPrefersBigSide(t *testing.T) {
	// Symmetric network: the join should run where the big table lives.
	j, a, b := annotatedJoin("LA", "LB")
	net := network.NewCostModel(10, 0.001)
	located, cost, err := SelectSites(j, net, "")
	if err != nil {
		t.Fatal(err)
	}
	if located.Loc != "LB" {
		t.Errorf("join placed at %s, want LB (big side)", located.Loc)
	}
	_ = a
	_ = b
	// Exactly one SHIP (A -> LB).
	ships := 0
	located.Walk(func(n *plan.Node) bool {
		if n.Kind == plan.Ship {
			ships++
			if n.FromLoc != "LA" || n.ToLoc != "LB" {
				t.Errorf("ship %s->%s", n.FromLoc, n.ToLoc)
			}
		}
		return true
	})
	if ships != 1 {
		t.Errorf("ships: %d", ships)
	}
	// Cost equals α + β × bytes of the A side.
	wantBytes := 100.0 * 8 // one int column
	want := 10 + 0.001*wantBytes
	if diff := cost - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cost = %v, want %v", cost, want)
	}
}

func TestSelectSitesRestrictedExec(t *testing.T) {
	// The join may only run at LA: both placements ship B.
	j, _, _ := annotatedJoin("LA")
	net := network.NewCostModel(10, 0.001)
	located, _, err := SelectSites(j, net, "")
	if err != nil {
		t.Fatal(err)
	}
	if located.Loc != "LA" {
		t.Errorf("placed at %s", located.Loc)
	}
}

func TestSelectSitesResultLocation(t *testing.T) {
	j, _, _ := annotatedJoin("LA", "LB")
	net := network.NewCostModel(10, 0.001)
	located, _, err := SelectSites(j, net, "LA")
	if err != nil {
		t.Fatal(err)
	}
	if located.Loc != "LA" {
		t.Errorf("pinned placement: %s", located.Loc)
	}
	// A location in the shipping trait but not the execution trait gets a
	// final SHIP.
	j2, _, _ := annotatedJoin("LB")
	j2.ShipT = plan.NewSiteSet("LB", "LC")
	located, _, err = SelectSites(j2, net, "LC")
	if err != nil {
		t.Fatal(err)
	}
	if located.Kind != plan.Ship || located.ToLoc != "LC" {
		t.Errorf("expected final ship to LC:\n%s", located.Format(true))
	}
	// A completely unreachable location fails.
	j3, _, _ := annotatedJoin("LB")
	j3.ShipT = plan.NewSiteSet("LB")
	if _, _, err := SelectSites(j3, net, "LC"); err == nil {
		t.Error("unreachable result location must fail")
	}
}

func TestSelectSitesAsymmetricNetwork(t *testing.T) {
	// Make shipping B extremely cheap and shipping A extremely expensive:
	// the DP must move B despite its size.
	j, _, _ := annotatedJoin("LA", "LB")
	net := network.NewCostModel(10, 0.001)
	net.SetEdge("LA", "LB", 1e6, 1)  // A -> LB prohibitive
	net.SetEdge("LB", "LA", 1, 1e-9) // B -> LA nearly free
	located, _, err := SelectSites(j, net, "")
	if err != nil {
		t.Fatal(err)
	}
	if located.Loc != "LA" {
		t.Errorf("asymmetric placement: %s", located.Loc)
	}
}

func TestShippingCostAccounting(t *testing.T) {
	j, _, _ := annotatedJoin("LA", "LB")
	net := network.NewCostModel(10, 0.001)
	located, cost, err := SelectSites(j, net, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := ShippingCost(located, net); got != cost {
		t.Errorf("ShippingCost %v != DP cost %v", got, cost)
	}
}
