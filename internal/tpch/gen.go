package tpch

import (
	"fmt"

	"cgdqp/internal/expr"
	"cgdqp/internal/schema"
)

// rng is a deterministic splitmix64 generator; the data generator must
// produce identical databases across runs and platforms.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// rangeInt returns a value in [lo, hi].
func (r *rng) rangeInt(lo, hi int64) int64 { return lo + r.intn(hi-lo+1) }

// float returns a value in [lo, hi).
func (r *rng) float(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(r.next()>>11)/float64(1<<53)
}

func (r *rng) pick(list []string) string { return list[r.intn(int64(len(list)))] }

// Value domains (subsets of the dbgen vocabularies; enough to make the
// benchmark predicates selective in the same way).
var (
	regionNames  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames  = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	nationRegion = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	typeSyl1     = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2     = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3     = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	containers   = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "WRAP CASE", "JUMBO PKG"}
	shipmodes    = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs    = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	flags        = []string{"R", "A", "N"}
	statuses     = []string{"O", "F", "P"}
	partAdjs     = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot", "hunter", "indian", "ivory", "khaki"}
)

var (
	dateLo = expr.MustDate("1992-01-01").Int()
	dateHi = expr.MustDate("1998-08-02").Int()
)

// Loader receives generated rows, one fragment at a time; a
// *cluster.Cluster is one.
type Loader interface {
	LoadFragment(t *schema.Table, fragIdx int, rows []expr.Row) error
}

// Generate populates the cluster with deterministic TPC-H-shaped data at
// the catalog's recorded sizes. Fragmented tables are split evenly in key
// order across their fragments.
func Generate(cat *schema.Catalog, cl Loader) error {
	sz := Sizes{}
	get := func(name string) *schema.Table {
		t, _ := cat.Table(name)
		return t
	}
	region, nation := get("region"), get("nation")
	supplier, part := get("supplier"), get("part")
	partsupp, customer := get("partsupp"), get("customer")
	orders, lineitem := get("orders"), get("lineitem")
	if region == nil || nation == nil || supplier == nil || part == nil ||
		partsupp == nil || customer == nil || orders == nil || lineitem == nil {
		return fmt.Errorf("tpch: catalog is missing TPC-H tables")
	}
	sz.Region, sz.Nation = region.RowCount(), nation.RowCount()
	sz.Supplier, sz.Part = supplier.RowCount(), part.RowCount()
	sz.Partsupp, sz.Customer = partsupp.RowCount(), customer.RowCount()
	sz.Orders, sz.Lineitem = orders.RowCount(), lineitem.RowCount()

	// region
	var rows []expr.Row
	for i := int64(0); i < sz.Region; i++ {
		rows = append(rows, expr.Row{
			expr.NewInt(i),
			expr.NewString(regionNames[i%5]),
			expr.NewString("region comment"),
		})
	}
	if err := loadSplit(cl, region, rows); err != nil {
		return err
	}

	// nation
	rows = nil
	for i := int64(0); i < sz.Nation; i++ {
		rows = append(rows, expr.Row{
			expr.NewInt(i),
			expr.NewString(nationNames[i%25]),
			expr.NewInt(nationRegion[i%25]),
			expr.NewString("nation comment"),
		})
	}
	if err := loadSplit(cl, nation, rows); err != nil {
		return err
	}

	// supplier
	r := newRng(42)
	rows = nil
	for i := int64(1); i <= sz.Supplier; i++ {
		rows = append(rows, expr.Row{
			expr.NewInt(i),
			expr.NewString(fmt.Sprintf("Supplier#%09d", i)),
			expr.NewString(fmt.Sprintf("addr-%d", r.intn(99999))),
			expr.NewInt(r.intn(sz.Nation)),
			expr.NewString(fmt.Sprintf("27-%03d-%04d", r.intn(999), r.intn(9999))),
			expr.NewFloat(r.float(-999, 9999)),
			expr.NewString("supplier comment"),
		})
	}
	if err := loadSplit(cl, supplier, rows); err != nil {
		return err
	}

	// part
	r = newRng(43)
	rows = nil
	for i := int64(1); i <= sz.Part; i++ {
		name := r.pick(partAdjs) + " " + r.pick(partAdjs) + " " + r.pick(partAdjs)
		ptype := r.pick(typeSyl1) + " " + r.pick(typeSyl2) + " " + r.pick(typeSyl3)
		rows = append(rows, expr.Row{
			expr.NewInt(i),
			expr.NewString(name),
			expr.NewString(fmt.Sprintf("Manufacturer#%d", 1+r.intn(5))),
			expr.NewString(fmt.Sprintf("Brand#%d%d", 1+r.intn(5), 1+r.intn(5))),
			expr.NewString(ptype),
			expr.NewInt(r.rangeInt(1, 50)),
			expr.NewString(r.pick(containers)),
			expr.NewFloat(900 + float64(i%1000)),
			expr.NewString("part comment"),
		})
	}
	if err := loadSplit(cl, part, rows); err != nil {
		return err
	}

	// partsupp: each part has suppliers round-robin; PK (partkey, suppkey).
	r = newRng(44)
	rows = nil
	perPart := sz.Partsupp / maxI64(sz.Part, 1)
	if perPart < 1 {
		perPart = 1
	}
	for p := int64(1); p <= sz.Part && int64(len(rows)) < sz.Partsupp; p++ {
		for j := int64(0); j < perPart && int64(len(rows)) < sz.Partsupp; j++ {
			sk := 1 + (p+j*7)%sz.Supplier
			rows = append(rows, expr.Row{
				expr.NewInt(p),
				expr.NewInt(sk),
				expr.NewInt(r.rangeInt(1, 9999)),
				expr.NewFloat(r.float(1, 1000)),
				expr.NewString("partsupp comment"),
			})
		}
	}
	if err := loadSplit(cl, partsupp, rows); err != nil {
		return err
	}

	// customer
	r = newRng(45)
	rows = nil
	for i := int64(1); i <= sz.Customer; i++ {
		rows = append(rows, expr.Row{
			expr.NewInt(i),
			expr.NewString(fmt.Sprintf("Customer#%09d", i)),
			expr.NewString(fmt.Sprintf("addr-%d", r.intn(99999))),
			expr.NewInt(r.intn(sz.Nation)),
			expr.NewString(fmt.Sprintf("13-%03d-%04d", r.intn(999), r.intn(9999))),
			expr.NewFloat(r.float(-999, 9999)),
			expr.NewString(r.pick(segments)),
			expr.NewString("customer comment"),
		})
	}
	if err := loadSplit(cl, customer, rows); err != nil {
		return err
	}

	// orders
	r = newRng(46)
	rows = nil
	orderDates := make([]int64, sz.Orders+1)
	for i := int64(1); i <= sz.Orders; i++ {
		d := r.rangeInt(dateLo, dateHi)
		orderDates[i] = d
		rows = append(rows, expr.Row{
			expr.NewInt(i),
			expr.NewInt(1 + r.intn(sz.Customer)),
			expr.NewString(r.pick(statuses)),
			expr.NewFloat(r.float(1000, 450000)),
			expr.NewDate(d),
			expr.NewString(r.pick(priorities)),
			expr.NewString(fmt.Sprintf("Clerk#%09d", 1+r.intn(1000))),
			expr.NewInt(0),
			expr.NewString("order comment"),
		})
	}
	if err := loadSplit(cl, orders, rows); err != nil {
		return err
	}

	// lineitem: FK to orders/part/supplier, shipdate after orderdate.
	r = newRng(47)
	rows = nil
	for i := int64(0); i < sz.Lineitem; i++ {
		ok := 1 + r.intn(sz.Orders)
		qty := r.rangeInt(1, 50)
		price := float64(qty) * r.float(900, 1100)
		ship := orderDates[ok] + r.rangeInt(1, 121)
		rows = append(rows, expr.Row{
			expr.NewInt(ok),
			expr.NewInt(1 + r.intn(sz.Part)),
			expr.NewInt(1 + r.intn(sz.Supplier)),
			expr.NewInt(1 + i%7),
			expr.NewInt(qty),
			expr.NewFloat(price),
			expr.NewFloat(float64(r.intn(11)) / 100),
			expr.NewFloat(float64(r.intn(9)) / 100),
			expr.NewString(r.pick(flags)),
			expr.NewString(r.pick([]string{"O", "F"})),
			expr.NewDate(ship),
			expr.NewDate(ship + r.rangeInt(-30, 30)),
			expr.NewDate(ship + r.rangeInt(1, 30)),
			expr.NewString(r.pick(instructs)),
			expr.NewString(r.pick(shipmodes)),
			expr.NewString("lineitem comment"),
		})
	}
	return loadSplit(cl, lineitem, rows)
}

// loadSplit distributes rows across a table's fragments (evenly, in
// order).
func loadSplit(cl Loader, t *schema.Table, rows []expr.Row) error {
	n := len(t.Fragments)
	if n <= 1 {
		return cl.LoadFragment(t, 0, rows)
	}
	per := (len(rows) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		if err := cl.LoadFragment(t, i, rows[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
