package main

import (
	"fmt"
	"math/rand"

	"cgdqp"
)

// spec is the fixed configuration of one workload. Sizes are chosen so
// that a 28 s run completes at least two cycles and ≥ 200 timed ops on two
// cores; README.md records why each workload exists.
type spec struct {
	name string
	why  string
	sf   float64
	// poolBytes / resCacheBytes: 0 = engine default / cache off.
	poolBytes     int64
	resCacheBytes int64
	wireDelay     float64
	clients       int
	// indexes declares B+ trees on orders.orderkey and lineitem.orderkey
	// (events.ts always has one).
	indexes bool
	// events is the initial size of the benchmark-owned append-only
	// table events(ts, kind, amount) at L4, which every workload defines
	// so that the store probes have a table to append to and an index to
	// look up; appendRows is the size of one append op.
	events     int
	appendRows int
	// firstSet is the policy set installed at set-up.
	firstSet string
	// populate builds the query population (choose, if set, trims it once
	// the oracle has judged the ad-hoc queries); cycle returns the rounds
	// of cycle c (every cycle has the same composition, so per-query
	// averages do not depend on how many cycles a run completes).
	populate func(h *harness) error
	choose   func(h *harness)
	cycle    func(h *harness, c int) []round
}

const eventsPolicy = "ship * from events to *"

// query is one member of a workload's population.
type query struct {
	name  string
	class string
	sql   string
	// pinned queries have seed-independent text, so their reference
	// digest is checked against testdata/expected.json on every seed.
	pinned bool
	// legalUnder lists the policy sets under which the query must be
	// answered; under the others it must be refused with
	// ErrNoCompliantPlan. nil = legal under every set.
	legalUnder map[string]bool
	// dyn, for queries over the events table, renders the SQL for the
	// table's current state and the rows the generator knows it holds.
	dyn func(g *eventsGen) (sql string, want []cgdqp.Row)
}

type opKind int

const (
	opQuery opKind = iota
	opSwitch
	opAppend
)

// op is one operation of the seeded sequence.
type op struct {
	kind  opKind
	class string
	q     *query // opQuery
	set   string // opSwitch
}

func (o op) String() string {
	switch o.kind {
	case opSwitch:
		return "switch:" + o.set
	case opAppend:
		return "append"
	}
	return o.q.name
}

// segment is a run of ops executed back to back by `clients`
// closed-loop clients (each sends its next op when its previous one has
// been answered). Untimed segments warm caches.
type segment struct {
	timed   bool
	clients int
	ops     []op
}

// round is the unit a cycle is made of and a bounded run (--rounds)
// counts in: the segments between two changes of the system's state.
type round []segment

func queryOps(qs []*query) []op {
	ops := make([]op, len(qs))
	for i, q := range qs {
		ops[i] = op{kind: opQuery, class: q.class, q: q}
	}
	return ops
}

func shuffled(r *rand.Rand, ops []op) []op {
	out := append([]op(nil), ops...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// --- populations ---------------------------------------------------------

func goldenQueries() []*query {
	var out []*query
	for _, n := range goldenNames() {
		out = append(out, &query{name: n, class: n, sql: goldenSQL(n), pinned: true})
	}
	return out
}

// adhocQueries returns the first n generated ad-hoc queries; legality
// per policy set is filled in by the oracle.
func adhocQueries(n int) []*query {
	var out []*query
	for i, sql := range adhocSQL(n) {
		out = append(out, &query{name: fmt.Sprintf("adhoc-%02d", i), class: "adhoc", sql: sql, pinned: true})
	}
	return out
}

// --- cold_plan -----------------------------------------------------------

const coldAdhoc = 20

func coldPlanSpec() *spec {
	return &spec{
		name:       "cold_plan",
		why:        "policy set switched every round, so every query misses the plan cache: parse, memo search, policy evaluation and site selection do the work, executor and store almost none",
		sf:         0.0002,
		clients:    1,
		events:     1000,
		appendRows: 1000,
		firstSet:   "T",
		populate: func(h *harness) error {
			h.golden = goldenQueries()
			h.adhoc = adhocQueries(coldAdhoc)
			h.warmup = h.golden
			return nil
		},
		cycle: func(h *harness, c int) []round {
			var rounds []round
			sets := policySetNames()
			for i := range sets {
				// Set-up installs the first set, so each cycle starts by
				// switching to the second and ends back on the first.
				ops := []op{{kind: opSwitch, class: "policy_switch", set: sets[(i+1)%len(sets)]}}
				ops = append(ops, shuffled(h.rng, queryOps(append(append([]*query(nil), h.golden...), h.adhoc...)))...)
				rounds = append(rounds, round{{timed: true, clients: 1, ops: ops}})
			}
			return rounds
		},
	}
}

// --- warm_exec -----------------------------------------------------------

const warmTimedRounds = 8

func warmExecSpec() *spec {
	return &spec{
		name:       "warm_exec",
		why:        "plans cached and data in the buffer pool: operators, expression kernels and wire encode/decode do the work, and the optimizer is a plan-cache hit",
		sf:         0.003,
		clients:    1,
		events:     1000,
		appendRows: 1000,
		firstSet:   "T",
		populate: func(h *harness) error {
			h.golden = goldenQueries()
			h.warmup = h.golden
			return nil
		},
		cycle: func(h *harness, c int) []round {
			var rounds []round
			for _, set := range policySetNames() {
				warm := append([]op{{kind: opSwitch, class: "policy_switch", set: set}}, queryOps(h.golden)...)
				rounds = append(rounds, round{{clients: 1, ops: warm}})
				for r := 0; r < warmTimedRounds; r++ {
					rounds = append(rounds, round{{timed: true, clients: 1, ops: shuffled(h.rng, queryOps(h.golden))}})
				}
			}
			return rounds
		},
	}
}

// --- store_bound ---------------------------------------------------------

const (
	storeRanges    = 20
	storePoints    = 50
	storeAppend    = 2000
	storeRecent    = 5000
	storeRangeSpan = 400
)

func storeBoundSpec() *spec {
	return &spec{
		name:       "store_bound",
		why:        "working set 7x the 2 MiB buffer pool; full scans, index ranges, point lookups and appends side by side: page I/O, eviction, B+ tree and WAL do the work",
		sf:         0.02,
		poolBytes:  2 << 20,
		clients:    1,
		indexes:    true,
		events:     20000,
		appendRows: storeAppend,
		firstSet:   "CR+A",
		populate: func(h *harness) error {
			h.store = []*query{
				{name: "scan_lineitem", class: "scan_lineitem", pinned: true,
					sql: "SELECT COUNT(*) AS n, SUM(l.extendedprice) AS total FROM lineitem l WHERE l.quantity < 25"},
				{name: "scan_orders", class: "scan_orders", pinned: true,
					sql: "SELECT COUNT(*) AS n, SUM(o.totalprice) AS total FROM orders o WHERE o.orderdate < DATE '1995-01-01'"},
				{name: "idx_join", class: "idx_join", pinned: true,
					sql: "SELECT o.orderkey, o.totalprice, SUM(l.extendedprice) AS total FROM orders o, lineitem l WHERE l.orderkey = o.orderkey AND o.orderkey BETWEEN 1000 AND 1400 GROUP BY o.orderkey, o.totalprice ORDER BY o.orderkey"},
			}
			// Seeded literals, drawn once and reused every round so that
			// plans are warm, as an application's prepared lookups are.
			maxKey := int(1500000*h.spec.sf) - storeRangeSpan // orderkeys are dense from 1
			for i := 0; i < storeRanges; i++ {
				lo := 1 + h.rng.Intn(maxKey)
				h.store = append(h.store, &query{name: fmt.Sprintf("idx_range-%02d", i), class: "idx_range",
					sql: fmt.Sprintf("SELECT COUNT(*) AS n, SUM(l.extendedprice) AS total FROM lineitem l WHERE l.orderkey BETWEEN %d AND %d", lo, lo+storeRangeSpan)})
			}
			for i := 0; i < storePoints; i++ {
				h.store = append(h.store, &query{name: fmt.Sprintf("idx_point-%02d", i), class: "idx_point",
					sql: fmt.Sprintf("SELECT o.orderkey, o.custkey, o.totalprice, o.orderdate FROM orders o WHERE o.orderkey = %d", 1+h.rng.Intn(maxKey))})
			}
			h.evRecent = &query{name: "ev_recent", class: "ev_recent", dyn: func(g *eventsGen) (string, []cgdqp.Row) {
				lo := g.n - storeRecent
				return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(e.amount) AS total FROM events e WHERE e.ts >= %d", lo),
					[]cgdqp.Row{{cgdqp.Int(storeRecent), cgdqp.Float(g.sumFrom(lo))}}
			}}
			h.warmup = h.store
			return nil
		},
		cycle: func(h *harness, c int) []round {
			ops := shuffled(h.rng, queryOps(h.store))
			ops = append(ops, op{kind: opAppend, class: "append"}, queryOps([]*query{h.evRecent})[0])
			return []round{{{timed: true, clients: 1, ops: ops}}}
		},
	}
}

// --- serve_mixed ---------------------------------------------------------

const (
	mixedAdhoc = 56
	// mixedCandidates ad-hoc queries are generated; the first mixedAdhoc
	// that every policy set answers join the population.
	mixedCandidates = 80
	mixedDraws      = 50
	mixedAppend     = 500
	mixedZipfS      = 1.1
	// mixedRankSeed fixes which ad-hoc queries are popular and the order
	// of each cycle's draws. Ranking per --seed would put a 300 ms query
	// on top for one seed and a 1 ms query for the next, and what LRU
	// eviction makes of a seeded order moved allocs_per_query by ±2 %;
	// --seed drives the appended rows only.
	mixedRankSeed = 7
)

func serveMixedSpec() *spec {
	return &spec{
		name:          "serve_mixed",
		why:           "2 clients draw Zipf-skewed queries through the scheduler, result cache and sleeping WAN on, a policy switch or an append between rounds: queueing, caching, invalidation and wire overlap",
		sf:            0.0004,
		resCacheBytes: 1 << 20,
		wireDelay:     0.05,
		clients:       2,
		events:        5000,
		appendRows:    mixedAppend,
		firstSet:      "T",
		choose:        (*harness).chooseMixedAdhoc,
		populate: func(h *harness) error {
			h.golden = goldenQueries()
			for _, q := range h.golden {
				q.class = "golden"
			}
			h.adhoc = adhocQueries(mixedCandidates)
			h.warmup = h.golden
			evs := []*query{
				{name: "ev_by_kind", class: "events", dyn: func(g *eventsGen) (string, []cgdqp.Row) {
					var want []cgdqp.Row
					for k, name := range eventKinds {
						want = append(want, cgdqp.Row{cgdqp.String(name), cgdqp.Int(g.kindN[k]), cgdqp.Float(g.kindSum[k])})
					}
					return "SELECT e.kind, COUNT(*) AS n, SUM(e.amount) AS total FROM events e GROUP BY e.kind", want
				}},
				{name: "ev_large", class: "events", dyn: func(g *eventsGen) (string, []cgdqp.Row) {
					return "SELECT COUNT(*) AS n, SUM(e.amount) AS total FROM events e WHERE e.amount > 50",
						[]cgdqp.Row{{cgdqp.Int(g.largeN), cgdqp.Float(g.largeSum)}}
				}},
			}
			h.events = evs
			return nil
		},
		cycle: func(h *harness, c int) []round {
			pop := h.mixedPopulation()
			sets := policySetNames()
			// A cycle's draws are the Zipf frequencies themselves — query k
			// appears round(n·p_k) times, its appearances dealt round-robin
			// over the cycle's rounds — not n independent draws, and their
			// order inside a round is cycle c's own, whatever the seed:
			// skew, composition and what the caches see repeat on every
			// seed, up to how the two clients interleave.
			order := rand.New(rand.NewSource(mixedRankSeed + int64(c)))
			nRounds := 2 * len(sets)
			perRound := make([][]op, nRounds)
			for k, n := range newZipf(len(pop), mixedZipfS).apportion(nRounds * mixedDraws) {
				for i := 0; i < n; i++ {
					b := (k + i) % nRounds
					perRound[b] = append(perRound[b], op{kind: opQuery, class: pop[k].class, q: pop[k]})
				}
			}
			var rounds []round
			for b, draws := range perRound {
				// Set-up installs the first set, so each cycle starts by
				// switching to the second and ends back on the first.
				mut := op{kind: opSwitch, class: "policy_switch", set: sets[(b/2+1)%len(sets)]}
				if b%2 == 1 {
					mut = op{kind: opAppend, class: "append"}
				}
				rounds = append(rounds, round{
					{timed: true, clients: 1, ops: []op{mut}},
					{timed: true, clients: h.spec.clients, ops: shuffled(order, draws)},
				})
			}
			return rounds
		},
	}
}

// chooseMixedAdhoc keeps the first mixedAdhoc candidates that every
// policy set answers: a refused query is never cached, so it would be a
// latency class of its own with a handful of samples.
func (h *harness) chooseMixedAdhoc() {
	var keep []*query
	for _, q := range h.adhoc {
		if q.legalUnder == nil && len(keep) < mixedAdhoc {
			keep = append(keep, q)
		}
	}
	h.adhoc = keep
}

// mixedGoldenRanks and mixedEventsRanks place the heavy golden queries
// and the events aggregates among the popular ranks, so that each is
// both hit and missed often enough in a run to have a median; the
// ad-hoc queries fill the other ranks in a fixed pseudo-random order.
var (
	mixedGoldenRanks = []int{1, 4, 8, 13, 19, 26}
	mixedEventsRanks = []int{2, 10}
)

// mixedPopulation is the ranked population of serve_mixed, most popular
// first.
func (h *harness) mixedPopulation() []*query {
	if h.mixedPop != nil {
		return h.mixedPop
	}
	fill := append([]*query(nil), h.adhoc...)
	r := rand.New(rand.NewSource(mixedRankSeed))
	r.Shuffle(len(fill), func(i, j int) { fill[i], fill[j] = fill[j], fill[i] })
	placed := map[int]*query{}
	for i, q := range h.golden {
		placed[mixedGoldenRanks[i]] = q
	}
	for i, q := range h.events {
		placed[mixedEventsRanks[i]] = q
	}
	for rank := 0; len(h.mixedPop) < len(fill)+len(placed); rank++ {
		if q, ok := placed[rank]; ok {
			h.mixedPop = append(h.mixedPop, q)
			continue
		}
		h.mixedPop = append(h.mixedPop, fill[0])
		fill = fill[1:]
	}
	return h.mixedPop
}

func allSpecs() []*spec {
	return []*spec{coldPlanSpec(), warmExecSpec(), storeBoundSpec(), serveMixedSpec()}
}

func specByName(name string) *spec {
	for _, s := range allSpecs() {
		if s.name == name {
			return s
		}
	}
	return nil
}

// --- events generator ----------------------------------------------------

var eventKinds = []string{"click", "order", "refund", "view"}

// eventsGen produces the rows appended to the events table and keeps
// the aggregates the benchmark's events queries must return. Amounts
// are multiples of 1/4, so sums are exact in any order.
type eventsGen struct {
	r        *rand.Rand
	n        int64
	prefix   []float64 // prefix[i] = sum of amounts of ts < i
	kindN    []int64
	kindSum  []float64
	largeN   int64
	largeSum float64
}

func newEventsGen(seed uint64) *eventsGen {
	return &eventsGen{
		r:       rand.New(rand.NewSource(int64(seed) ^ 0x5eed)),
		prefix:  []float64{0},
		kindN:   make([]int64, len(eventKinds)),
		kindSum: make([]float64, len(eventKinds)),
	}
}

func (g *eventsGen) next(k int) []cgdqp.Row {
	rows := make([]cgdqp.Row, k)
	for i := range rows {
		kind := g.r.Intn(len(eventKinds))
		amount := float64(g.r.Intn(400)) / 4
		rows[i] = cgdqp.Row{cgdqp.Int(g.n), cgdqp.String(eventKinds[kind]), cgdqp.Float(amount)}
		g.n++
		g.prefix = append(g.prefix, g.prefix[len(g.prefix)-1]+amount)
		g.kindN[kind]++
		g.kindSum[kind] += amount
		if amount > 50 {
			g.largeN++
			g.largeSum += amount
		}
	}
	return rows
}

// sumFrom is the sum of amounts of events with ts >= lo.
func (g *eventsGen) sumFrom(lo int64) float64 { return g.prefix[g.n] - g.prefix[lo] }
