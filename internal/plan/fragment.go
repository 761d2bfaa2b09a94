package plan

// A Fragment is a maximal Ship-free subtree of a located physical plan:
// the unit of work one site executes between exchanges. Every Ship
// operator is a pipeline breaker — its child subtree belongs to the
// producing site's fragment, its output feeds the consuming fragment —
// so a plan with k Ship operators splits into k+1 fragments. The
// parallel executor runs each fragment on its own goroutine and turns
// every Ship into a channel-backed exchange.
type Fragment struct {
	// Root is the fragment's topmost operator: the plan root for the
	// final fragment, or the child of the Ship that exports it.
	Root *Node
	// Output is the Ship operator exporting this fragment's result to
	// its consumer, or nil for the plan-root fragment.
	Output *Node
	// Inputs are the Ship operators appearing as leaves inside this
	// fragment (each one's child subtree is another fragment).
	Inputs []*Node
	// Loc is the site the fragment executes at ("" when the plan is not
	// located, e.g. before site selection).
	Loc string
}

// SplitFragments decomposes a located physical plan into its execution
// fragments at Ship boundaries. The plan-root fragment is first; the
// remaining fragments follow in pre-order of their exporting Ship
// operators, so the decomposition is deterministic for a given plan.
func SplitFragments(root *Node) []*Fragment {
	var out []*Fragment
	var build func(fragRoot, output *Node)
	build = func(fragRoot, output *Node) {
		f := &Fragment{Root: fragRoot, Output: output, Loc: fragLoc(fragRoot, output)}
		out = append(out, f)
		var pending []*Node
		fragRoot.Walk(func(n *Node) bool {
			if n.Kind == Ship {
				f.Inputs = append(f.Inputs, n)
				pending = append(pending, n)
				return false // the subtree below belongs to another fragment
			}
			return true
		})
		for _, ship := range pending {
			build(ship.Children[0], ship)
		}
	}
	build(root, nil)
	return out
}

// fragLoc derives the fragment's execution site: the exporting Ship's
// source location when present, otherwise the fragment root's own
// location annotation.
func fragLoc(fragRoot, output *Node) string {
	if output != nil && output.FromLoc != "" {
		return output.FromLoc
	}
	return fragRoot.Loc
}
