package optimizer

import (
	"fmt"
	"math"

	"cgdqp/internal/network"
	"cgdqp/internal/plan"
)

// SelectSites is the site selector of phase 2 (Section 6.3, Algorithm 2):
// given an annotated plan whose nodes carry execution traits, it assigns
// each operator a location by memoized top-down dynamic programming over
// (node, location) pairs, pricing inter-site movement with the message
// cost model, and materializes SHIP operators on every crossing edge.
//
// resultLoc pins the location of the root operator (where the user wants
// the result); when empty, the cheapest legal root location wins. The
// input tree is mutated (callers clone extracted plans first).
func SelectSites(root *plan.Node, net *network.CostModel, resultLoc string) (*plan.Node, float64, error) {
	ss := &siteSelector{net: net, cost: map[ssKey]float64{}, pick: map[ssKey][]string{}}

	candidates := root.Exec.Slice()
	finalShip := false
	if resultLoc != "" {
		switch {
		case root.Exec.Contains(resultLoc):
			candidates = []string{resultLoc}
		case root.ShipT.Contains(resultLoc):
			// The root cannot execute at the result location, but its
			// output may legally be shipped there: place the root at the
			// cheapest legal site and append a final SHIP.
			finalShip = true
		default:
			return nil, 0, fmt.Errorf("optimizer: no compliant plan can deliver the result at %s (legal sites: %s)", resultLoc, root.ShipT)
		}
	}
	if len(candidates) == 0 {
		return nil, 0, fmt.Errorf("optimizer: annotated plan has an empty execution trait at the root")
	}
	bestCost := math.Inf(1)
	bestLoc := ""
	for _, l := range candidates {
		c := ss.costOf(root, l)
		if finalShip {
			c += ss.shipCost(root, l, resultLoc)
		}
		if c < bestCost {
			bestCost = c
			bestLoc = l
		}
	}
	if math.IsInf(bestCost, 1) {
		return nil, 0, fmt.Errorf("optimizer: site selection found no feasible placement")
	}
	out := ss.assign(root, bestLoc)
	if finalShip && bestLoc != resultLoc {
		ship := plan.NewShip(out, bestLoc, resultLoc)
		ship.Exec = plan.NewSiteSet(resultLoc)
		ship.ShipT = out.ShipT
		out = ship
	}
	return out, bestCost, nil
}

type ssKey struct {
	n   *plan.Node
	loc string
}

type siteSelector struct {
	net  *network.CostModel
	cost map[ssKey]float64
	pick map[ssKey][]string // chosen child locations for (node, loc)
}

// costOf implements CostOf(n, l) of Algorithm 2.
func (ss *siteSelector) costOf(n *plan.Node, l string) float64 {
	key := ssKey{n, l}
	if c, ok := ss.cost[key]; ok {
		return c
	}
	var total float64
	picks := make([]string, len(n.Children))
	if len(n.Children) == 0 {
		// Base case: a leaf is free at its source location, impossible
		// elsewhere.
		if n.Exec.Contains(l) {
			total = 0
		} else {
			total = math.Inf(1)
		}
	} else {
		for i, child := range n.Children {
			bestChild := math.Inf(1)
			bestLoc := ""
			for _, cl := range child.Exec.Slice() {
				c := ss.shipCost(child, cl, l) + ss.costOf(child, cl)
				if c < bestChild {
					bestChild = c
					bestLoc = cl
				}
			}
			total += bestChild
			picks[i] = bestLoc
		}
		if !n.Exec.Contains(l) {
			total = math.Inf(1)
		}
	}
	ss.cost[key] = total
	ss.pick[key] = picks
	return total
}

// shipCost prices moving a node's output between sites using the message
// cost model α + β·bytes with bytes = |rows| × row width, scaled by the
// calibrated estimate-to-wire-bytes ratio when one is installed.
func (ss *siteSelector) shipCost(n *plan.Node, from, to string) float64 {
	if from == to {
		return 0
	}
	return ss.net.EstShipCost(from, to, n.Card*n.RowWidth())
}

// assign walks the DP choices, sets Loc on every operator and inserts
// SHIP operators on crossing edges.
func (ss *siteSelector) assign(n *plan.Node, l string) *plan.Node {
	n.Loc = l
	picks := ss.pick[ssKey{n, l}]
	for i, child := range n.Children {
		cl := picks[i]
		sub := ss.assign(child, cl)
		if cl != l {
			ship := plan.NewShip(sub, cl, l)
			ship.Exec = plan.NewSiteSet(l)
			ship.ShipT = sub.ShipT
			n.Children[i] = ship
		} else {
			n.Children[i] = sub
		}
	}
	return n
}

// ShippingCost re-prices the SHIP operators of a located plan with a cost
// model (using estimated cardinalities); used to compare plan quality.
func ShippingCost(root *plan.Node, net *network.CostModel) float64 {
	total := 0.0
	root.Walk(func(n *plan.Node) bool {
		if n.Kind == plan.Ship {
			child := n.Children[0]
			total += net.EstShipCost(n.FromLoc, n.ToLoc, child.Card*child.RowWidth())
		}
		return true
	})
	return total
}
