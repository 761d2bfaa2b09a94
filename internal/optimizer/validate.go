package optimizer

import (
	"fmt"
	"strings"

	"cgdqp/internal/plan"
)

// ValidatePlan checks structural invariants of a physical plan tree; a
// violation indicates an optimizer bug (the executor's row layouts would
// silently diverge from declared schemas). Invariants:
//
//  1. a join's declared schema is the concatenation of its children's;
//  2. a union's children share the declared schema;
//  3. pass-through operators (filter, sort, limit, ship) keep their
//     child's schema;
//  4. every located operator carries a non-empty schema and, when the
//     tree is annotated, a location within its execution trait.
func ValidatePlan(root *plan.Node) error {
	var errs []string
	root.Walk(func(n *plan.Node) bool {
		switch n.Kind {
		case plan.HashJoin, plan.NLJoin, plan.Join, plan.IndexLookupJoin:
			var concat []string
			for _, c := range n.Children {
				for _, cr := range c.Cols {
					concat = append(concat, cr.Key())
				}
			}
			if !keysEqual(colKeys(n.Cols), concat) {
				errs = append(errs, fmt.Sprintf("%s: declared schema %v != children %v", n.Kind, colKeys(n.Cols), concat))
			}
		case plan.UnionAll, plan.Union:
			for i, c := range n.Children {
				if !keysEqual(colKeys(n.Cols), colKeys(c.Cols)) {
					errs = append(errs, fmt.Sprintf("%s: child %d schema %v != %v", n.Kind, i, colKeys(c.Cols), colKeys(n.Cols)))
				}
			}
		case plan.FilterExec, plan.Filter, plan.SortExec, plan.Sort,
			plan.LimitExec, plan.Limit, plan.Ship:
			if len(n.Children) == 1 && !keysEqual(colKeys(n.Cols), colKeys(n.Children[0].Cols)) {
				errs = append(errs, fmt.Sprintf("%s: schema %v != child %v", n.Kind, colKeys(n.Cols), colKeys(n.Children[0].Cols)))
			}
		}
		if len(n.Cols) == 0 {
			errs = append(errs, fmt.Sprintf("%s: empty schema", n.Kind))
		}
		if n.Loc != "" && !n.Exec.Empty() && !n.Exec.Contains(n.Loc) {
			errs = append(errs, fmt.Sprintf("%s: located at %s outside execution trait %s", n.Kind, n.Loc, n.Exec))
		}
		return true
	})
	if len(errs) > 0 {
		return fmt.Errorf("optimizer: invalid plan:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

func colKeys(cols []plan.ColRef) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Key()
	}
	return out
}

func keysEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
