package plan

import (
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/schema"
)

func fragFixture() (*Node, *Node, *Node) {
	c := NewScan(schema.NewTable("C", "db-n", "N", 10,
		schema.Column{Name: "k", Type: expr.TInt}), "C", -1)
	o := NewScan(schema.NewTable("O", "db-e", "E", 10,
		schema.Column{Name: "k", Type: expr.TInt}), "O", -1)
	s := NewScan(schema.NewTable("S", "db-a", "A", 10,
		schema.Column{Name: "k", Type: expr.TInt}), "S", -1)
	return c, o, s
}

func TestSplitFragmentsSingle(t *testing.T) {
	c, _, _ := fragFixture()
	frags := SplitFragments(c)
	if len(frags) != 1 {
		t.Fatalf("fragments: %d, want 1", len(frags))
	}
	f := frags[0]
	if f.Root != c || f.Output != nil || len(f.Inputs) != 0 {
		t.Errorf("unexpected fragment: %+v", f)
	}
}

func TestSplitFragmentsMultiShip(t *testing.T) {
	c, o, s := fragFixture()
	shipC := NewShip(c, "N", "E")
	shipS := NewShip(s, "A", "E")
	join := NewJoin(shipC, o, expr.NewCmp(expr.EQ, expr.NewCol("C", "k"), expr.NewCol("O", "k")))
	join2 := NewJoin(join, shipS, expr.NewCmp(expr.EQ, expr.NewCol("O", "k"), expr.NewCol("S", "k")))
	root := NewShip(join2, "E", "N")

	frags := SplitFragments(root)
	if len(frags) != 4 {
		t.Fatalf("fragments: %d, want 4", len(frags))
	}
	// Root fragment is the final Ship itself: a bare receiver at N.
	if frags[0].Root != root || len(frags[0].Inputs) != 1 || frags[0].Inputs[0] != root {
		t.Errorf("root fragment: %+v", frags[0])
	}
	if frags[0].Loc != "N" {
		t.Errorf("root fragment loc: %q", frags[0].Loc)
	}
	// The join fragment executes at E and consumes two exchanges.
	jf := frags[1]
	if jf.Root != join2 || jf.Output != root || len(jf.Inputs) != 2 || jf.Loc != "E" {
		t.Errorf("join fragment: root=%v output=%v inputs=%d loc=%q",
			jf.Root.Kind, jf.Output, len(jf.Inputs), jf.Loc)
	}
	// The two producer fragments are leaves at their data's sites.
	if frags[2].Root != c || frags[2].Output != shipC || len(frags[2].Inputs) != 0 || frags[2].Loc != "N" {
		t.Errorf("customer fragment: %+v", frags[2])
	}
	if frags[3].Root != s || frags[3].Output != shipS || len(frags[3].Inputs) != 0 || frags[3].Loc != "A" {
		t.Errorf("supply fragment: %+v", frags[3])
	}
}
