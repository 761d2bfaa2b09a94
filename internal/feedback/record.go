package feedback

import (
	"fmt"
	"hash/fnv"
	"sort"

	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
)

// maxReportedOps bounds the per-query q-error list handed to the slow
// log (worst offenders first).
const maxReportedOps = 8

// OpQError is one operator's estimate-vs-actual outcome, as reported in
// the slow-query log.
type OpQError struct {
	Op     string  `json:"op"`
	Digest string  `json:"digest"` // short hash of the subplan digest
	Est    float64 `json:"est"`
	Actual float64 `json:"actual"`
	QError float64 `json:"qerror"`
}

// RecordExecution walks an executed located plan with its profile,
// feeds every operator's (estimate, actual) into the store under the
// digest of the subplan it roots (plan.WalkSubplans: one key per logical
// subplan, whatever join order or physical operators ran it), and
// returns the per-operator q-errors sorted worst-first (capped at
// maxReportedOps) for the slow-query log. The store may be nil
// (slow-log-only mode); the q-errors are still computed. Rules that keep
// the actuals trustworthy:
//
//   - Ship and Project nodes carry their input's digest and cardinality
//     and are not recorded a second time.
//   - Subtrees under a Limit are skipped: early termination truncates
//     their actuals below the true cardinality.
//   - Re-opened operators (NL-join inner sides) accumulate rows across
//     opens, so the actual is normalized per open.
func RecordExecution(s *Store, root *plan.Node, prof *obs.PlanProfile) []OpQError {
	if root == nil || prof == nil {
		return nil
	}
	var out []OpQError
	plan.WalkSubplans(root, func(n *plan.Node, digest string, underLimit bool) {
		kind := n.Kind.Canon()
		if underLimit || kind == plan.Ship || kind == plan.Project {
			return
		}
		st := prof.Peek(n)
		if st == nil || st.Opens.Load() == 0 {
			return
		}
		actual := float64(st.Rows.Load()) / float64(st.Opens.Load())
		s.ObserveOperator(digest, n.Card, actual)
		out = append(out, OpQError{
			Op:     kind.String(),
			Digest: ShortDigest(digest),
			Est:    n.Card,
			Actual: actual,
			QError: QError(n.Card, actual),
		})
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].QError > out[j].QError })
	if len(out) > maxReportedOps {
		out = out[:maxReportedOps]
	}
	return out
}

// ShortDigest compresses a string — a statement's text, or a
// (potentially long) plan or subplan digest — into a fixed-width stable
// hash for log lines.
func ShortDigest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}
