package plan

import (
	"sort"
	"strings"

	"cgdqp/internal/expr"
)

// This file is the one place that knows the identity of a logical
// subplan: what it computes, whatever tree, physical operators or site
// assignment computed it. The feedback store records observed
// cardinalities from *executed* (located, physical) plans, the memo looks
// them up for *groups* of the normalized logical plan, and the scheduler
// looks them up for plan fragments; all three go through SubplanOf, so
// they agree by construction. The identity erases exactly what cannot
// change a cardinality:
//
//   - the physical kind (Canon): HashJoin, NLJoin and IndexLookupJoin
//     are the Join whose conjuncts they carry, an IndexScan is the
//     Filter over the Scan it implements;
//   - Ship and Project, which pass their input's rows through — so the
//     site selector's shipments, the reorder projections the memo puts
//     over commuted joins and the projection merging done after
//     extraction are all invisible;
//   - the shape of an inner-join tree: σ_{∧conjuncts}(× leaves) is the
//     same relation under every join order, so a maximal join subtree is
//     its sorted leaf identities plus its sorted conjunct renderings —
//     the signature a memo join group is keyed by.

// Canon maps a physical operator kind to its logical counterpart.
func (k Kind) Canon() Kind {
	switch k {
	case TableScan:
		return Scan
	case FilterExec:
		return Filter
	case ProjectExec:
		return Project
	case HashJoin, NLJoin, IndexLookupJoin:
		return Join
	case HashAgg:
		return Aggregate
	case SortExec:
		return Sort
	case LimitExec:
		return Limit
	case UnionAll:
		return Union
	}
	return k
}

// Subplan is the identity of a logical subplan. Digest is the key the
// feedback store files actuals under; leaves and conjs are set when the
// subplan is a join (possibly under projections), so an enclosing join
// can absorb it.
type Subplan struct {
	Digest        string
	leaves, conjs []string
}

// opDigest is the identity of a non-join operator over its inputs: the
// operator digest under its logical kind, composed over the inputs'
// digests.
func opDigest(op *Node, kids []Subplan) string {
	cp := *op
	cp.Kind = op.Kind.Canon()
	var b strings.Builder
	b.WriteString(cp.OpDigest())
	b.WriteByte('(')
	for i, k := range kids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k.Digest)
	}
	b.WriteByte(')')
	return b.String()
}

// JoinDigest is the identity of an inner join of the given leaf inputs
// under the given conjuncts, both sorted: every commutation and
// re-association of one join renders the same string.
func JoinDigest(leaves, conjs []string) string {
	return "Join{" + strings.Join(leaves, ",") + "|" + strings.Join(conjs, "&") + "}"
}

// SubplanOf returns the identity of operator op applied to inputs with
// the given identities. op's own Children are not read, so the memo can
// pass an expression's operator with its child groups' identities.
func SubplanOf(op *Node, kids []Subplan) Subplan {
	switch op.Kind.Canon() {
	case Ship, Project:
		if len(kids) == 1 {
			return kids[0]
		}
	case IndexScan:
		scan := Subplan{Digest: opDigest(&Node{Kind: Scan, Table: op.Table, Alias: op.Alias, FragIdx: op.FragIdx}, nil)}
		return Subplan{Digest: opDigest(&Node{Kind: Filter, Pred: op.Pred}, []Subplan{scan})}
	case Join:
		var j Subplan
		for _, k := range kids {
			if k.leaves == nil {
				j.leaves = append(j.leaves, k.Digest)
				continue
			}
			j.leaves = append(j.leaves, k.leaves...)
			j.conjs = append(j.conjs, k.conjs...)
		}
		for _, c := range expr.Conjuncts(op.Pred) {
			j.conjs = append(j.conjs, c.String())
		}
		sort.Strings(j.leaves)
		sort.Strings(j.conjs)
		j.Digest = JoinDigest(j.leaves, j.conjs)
		return j
	}
	return Subplan{Digest: opDigest(op, kids)}
}

// WalkSubplans walks a plan bottom-up and hands every operator, with the
// digest of the subplan rooted at it, to visit. A Ship or Project is
// visited with its input's digest. underLimit marks operators below a
// Limit, whose actuals early termination truncates.
func WalkSubplans(root *Node, visit func(n *Node, digest string, underLimit bool)) {
	walkSubplans(root, false, visit)
}

func walkSubplans(n *Node, underLimit bool, visit func(*Node, string, bool)) Subplan {
	below := underLimit || n.Kind.Canon() == Limit
	kids := make([]Subplan, len(n.Children))
	for i, c := range n.Children {
		kids[i] = walkSubplans(c, below, visit)
	}
	sp := SubplanOf(n, kids)
	visit(n, sp.Digest, underLimit)
	return sp
}

// SubplanDigest is the digest of the subplan rooted at n.
func (n *Node) SubplanDigest() string {
	return walkSubplans(n, false, func(*Node, string, bool) {}).Digest
}
