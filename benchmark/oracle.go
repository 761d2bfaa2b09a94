package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cgdqp"
)

// The correctness oracle. Every distinct static query is answered once
// at set-up by the most boring configuration the engine has — the
// sequential row engine, expression interpreter, in-memory backend, no
// plan or result cache, and policies that restrict nothing (compliance
// rewrites must not change semantics) — and every timed answer is
// compared with that reference. Legality verdicts of the ad-hoc queries
// come from a cache-less optimizer over each hand-built policy catalog.
// Both are pinned in testdata/expected.json, so a change that moves the
// oracle itself is caught too.

// reference is the expected answer of one query: rows in canonical
// order plus their digest.
type reference struct {
	rows   []cgdqp.Row
	digest string
}

type oracle struct {
	refs map[string]*reference // by SQL text
}

func isNumeric(v cgdqp.Value) bool {
	return !v.IsNull() && (v.T == cgdqp.TInt || v.T == cgdqp.TFloat)
}

// rowKey renders a row for ordering and digesting. Numbers are rendered
// with `digits` significant digits: 6 for the coarse key (summation
// order cannot move it), 17 for the tie-break.
func rowKey(r cgdqp.Row, digits int) string {
	parts := make([]string, len(r))
	for i, v := range r {
		if isNumeric(v) {
			parts[i] = strconv.FormatFloat(v.Float(), 'g', digits, 64)
		} else {
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, "|")
}

// canonical sorts rows by (coarse key, fine key) and returns the coarse
// keys alongside.
func canonical(rows []cgdqp.Row) ([]cgdqp.Row, []string) {
	type keyed struct {
		r            cgdqp.Row
		coarse, fine string
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{r, rowKey(r, 6), rowKey(r, 17)}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].coarse != ks[j].coarse {
			return ks[i].coarse < ks[j].coarse
		}
		return ks[i].fine < ks[j].fine
	})
	out, keys := make([]cgdqp.Row, len(ks)), make([]string, len(ks))
	for i, k := range ks {
		out[i], keys[i] = k.r, k.coarse
	}
	return out, keys
}

func newReference(rows []cgdqp.Row) *reference {
	sorted, keys := canonical(rows)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return &reference{rows: sorted, digest: hex.EncodeToString(h.Sum(nil))[:16]}
}

// sameRows compares an answer with the reference: same multiset of
// rows, numbers equal to 1e-9 relative (plans under different policy
// sets add floats in different orders).
func sameRows(got []cgdqp.Row, want *reference) error {
	if len(got) != len(want.rows) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want.rows))
	}
	sorted, _ := canonical(got)
	for i, r := range sorted {
		w := want.rows[i]
		if len(r) != len(w) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(r), len(w))
		}
		for j := range r {
			a, b := r[j], w[j]
			if isNumeric(a) && isNumeric(b) {
				x, y := a.Float(), b.Float()
				if math.Abs(x-y) > 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
					return fmt.Errorf("row %d column %d: %v, want %v", i, j, x, y)
				}
			} else if a.String() != b.String() {
				return fmt.Errorf("row %d column %d: %s, want %s", i, j, a, b)
			}
		}
	}
	return nil
}

// newOracle judges every ad-hoc query under every policy set with a
// cache-less optimizer over the hand-built catalog.
func newOracle(sp *spec, adhoc []*query) (*oracle, error) {
	o := &oracle{refs: map[string]*reference{}}
	sets := policySetNames()
	for _, set := range sets {
		if len(adhoc) == 0 {
			break
		}
		judge := cgdqp.NewSystemWith(cgdqp.Options{PlanCacheSize: -1})
		useTPCH(judge, sp.sf)
		installSet(judge, set)
		for _, q := range adhoc {
			legal, err := judge.Legal(q.sql)
			if err != nil {
				return nil, fmt.Errorf("oracle verdict %s under %s: %w", q.name, set, err)
			}
			if legal && q.legalUnder == nil {
				continue
			}
			if q.legalUnder == nil {
				// First refusal: every earlier set answered it.
				q.legalUnder = map[string]bool{}
				for _, s := range sets {
					if s == set {
						break
					}
					q.legalUnder[s] = true
				}
			}
			if legal {
				q.legalUnder[set] = true
			}
		}
	}
	return o, nil
}

// addReferences answers every static query once with the reference
// configuration.
func (o *oracle) addReferences(sp *spec, static []*query) error {
	ref := cgdqp.NewSystemWith(cgdqp.Options{NoVectorKernels: true, PlanCacheSize: -1})
	useTPCH(ref, sp.sf)
	for _, src := range unrestrictedTexts() {
		if err := ref.AddPolicy(src); err != nil {
			return fmt.Errorf("oracle policy %q: %w", src, err)
		}
	}
	if err := loadTPCH(ref); err != nil {
		return fmt.Errorf("oracle load: %w", err)
	}
	for _, q := range static {
		if _, ok := o.refs[q.sql]; ok {
			continue
		}
		res, err := ref.Query(q.sql)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q.name, err)
		}
		o.refs[q.sql] = newReference(res.Rows)
	}
	return nil
}

// legal reports the expected verdict of q under a policy set.
func (q *query) legal(set string) bool { return q.legalUnder == nil || q.legalUnder[set] }

// isRefusal reports whether err is the optimizer's "no compliant plan".
func isRefusal(err error) bool { return errors.Is(err, cgdqp.ErrNoCompliantPlan) }

// --- pinned expectations -------------------------------------------------

//go:embed testdata/expected.json
var expectedJSON []byte

type pinnedQuery struct {
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
	// Refused lists the policy sets that must refuse the query.
	Refused []string `json:"refused,omitempty"`
}

type pinnedWorkload struct {
	SF      float64                `json:"sf"`
	Queries map[string]pinnedQuery `json:"queries"`
}

// pinned is testdata/expected.json: reference digests, row counts and
// legality verdicts for the default seed.
type pinned struct {
	Workloads map[string]*pinnedWorkload `json:"workloads"`
}

func loadPinned() (*pinned, error) {
	p := &pinned{Workloads: map[string]*pinnedWorkload{}}
	if len(strings.TrimSpace(string(expectedJSON))) == 0 {
		return p, nil
	}
	if err := json.Unmarshal(expectedJSON, p); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return p, nil
}

func (o *oracle) pin(sp *spec, static []*query) *pinnedWorkload {
	pw := &pinnedWorkload{SF: sp.sf, Queries: map[string]pinnedQuery{}}
	for _, q := range static {
		ref := o.refs[q.sql]
		pq := pinnedQuery{Rows: len(ref.rows), Digest: ref.digest}
		for _, set := range policySetNames() {
			if !q.legal(set) {
				pq.Refused = append(pq.Refused, set)
			}
		}
		pw.Queries[q.name] = pq
	}
	return pw
}

// checkPinned compares this run's oracle with the pinned expectations:
// seed-independent queries on every seed, seeded ones on the default
// seed only.
func (o *oracle) checkPinned(sp *spec, defaultSeed bool, static []*query) error {
	p, err := loadPinned()
	if err != nil {
		return err
	}
	want, ok := p.Workloads[sp.name]
	if !ok {
		return fmt.Errorf("testdata/expected.json has no workload %q (run with --update)", sp.name)
	}
	if want.SF != sp.sf {
		return fmt.Errorf("testdata/expected.json pins %s at SF %g, spec says %g (run with --update)", sp.name, want.SF, sp.sf)
	}
	got := o.pin(sp, static)
	for _, q := range static {
		if !q.pinned && !defaultSeed {
			continue
		}
		w, ok := want.Queries[q.name]
		if !ok {
			return fmt.Errorf("testdata/expected.json: %s has no query %q (run with --update)", sp.name, q.name)
		}
		g := got.Queries[q.name]
		if g.Rows != w.Rows || g.Digest != w.Digest || strings.Join(g.Refused, ",") != strings.Join(w.Refused, ",") {
			return fmt.Errorf("oracle drift on %s/%s: rows %d digest %s refused %v, pinned rows %d digest %s refused %v",
				sp.name, q.name, g.Rows, g.Digest, g.Refused, w.Rows, w.Digest, w.Refused)
		}
	}
	return nil
}

// benchDir locates the benchmark's source directory from the working
// directory (the checkout root for the driver, the package directory
// under `go test`).
func benchDir() (string, error) {
	for _, d := range []string{"benchmark", "."} {
		if _, err := os.Stat(filepath.Join(d, "testdata", "expected.json")); err == nil {
			return d, nil
		}
	}
	return "", errors.New("cannot find benchmark/testdata/expected.json from the working directory")
}

// updatePinned rewrites one workload's section of testdata/expected.json
// (main refuses --update on any seed but the default).
func (o *oracle) updatePinned(sp *spec, static []*query) error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "testdata", "expected.json")
	p := &pinned{Workloads: map[string]*pinnedWorkload{}}
	if raw, err := os.ReadFile(path); err == nil && len(strings.TrimSpace(string(raw))) > 0 {
		if err := json.Unmarshal(raw, p); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	p.Workloads[sp.name] = o.pin(sp, static)
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
