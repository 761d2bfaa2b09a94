// Package tpch provides the TPC-H substrate of the evaluation
// (Section 7.1): the eight-table schema distributed over five locations
// as in Table 2, a deterministic PK–FK-consistent data generator, and the
// six benchmark queries (Q2, Q3, Q5, Q8, Q9, Q10) adapted to the
// engine's SQL subset. Column names are unprefixed (custkey, not
// c_custkey), matching the paper's policy expressions in Table 3.
package tpch

import (
	"math"

	"cgdqp/internal/expr"
	"cgdqp/internal/schema"
)

// Table 2: TPC-H table distribution among five locations.
//
//	L1 db-1: Customer, Orders
//	L2 db-2: Supplier, Partsupp
//	L3 db-3: Part
//	L4 db-4: Lineitem
//	L5 db-5: Nation, Region
var placement = map[string]struct{ DB, Loc string }{
	"customer": {"db-1", "L1"},
	"orders":   {"db-1", "L1"},
	"supplier": {"db-2", "L2"},
	"partsupp": {"db-2", "L2"},
	"part":     {"db-3", "L3"},
	"lineitem": {"db-4", "L4"},
	"nation":   {"db-5", "L5"},
	"region":   {"db-5", "L5"},
}

// Locations returns L1..L5.
func Locations() []string { return []string{"L1", "L2", "L3", "L4", "L5"} }

// DefaultPlacement returns the Table 2 location of a table.
func DefaultPlacement(table string) (db, loc string) {
	p := placement[table]
	return p.DB, p.Loc
}

// Rows per table at scale factor 1 (dbgen conventions; lineitem is ~4×
// orders on average).
const (
	sfSupplier = 10000
	sfPart     = 200000
	sfPartsupp = 800000
	sfCustomer = 150000
	sfOrders   = 1500000
	sfLineitem = 6000000
)

// scaled returns max(1, base × sf).
func scaled(base int64, sf float64) int64 {
	n := int64(math.Round(float64(base) * sf))
	if n < 1 {
		return 1
	}
	return n
}

// Sizes reports the row counts at a scale factor.
type Sizes struct {
	Region, Nation, Supplier, Part, Partsupp, Customer, Orders, Lineitem int64
}

// SizesFor computes the table sizes at the given scale factor.
func SizesFor(sf float64) Sizes {
	return Sizes{
		Region:   5,
		Nation:   25,
		Supplier: scaled(sfSupplier, sf),
		Part:     scaled(sfPart, sf),
		Partsupp: scaled(sfPartsupp, sf),
		Customer: scaled(sfCustomer, sf),
		Orders:   scaled(sfOrders, sf),
		Lineitem: scaled(sfLineitem, sf),
	}
}

// NewCatalog builds the geo-distributed TPC-H catalog at a scale factor,
// including table statistics (the optimizer needs only the catalog, not
// generated data — "scale factor does not impact the query
// optimization", Section 7.1).
func NewCatalog(sf float64) *schema.Catalog {
	sz := SizesFor(sf)
	cat := schema.NewCatalog()
	// Register locations in order so experiments are deterministic.
	for _, l := range Locations() {
		cat.AddLocation(l)
	}

	region := schema.NewTable("region", "db-5", "L5", sz.Region,
		schema.Column{Name: "regionkey", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString, AvgWidth: 12},
		schema.Column{Name: "comment", Type: expr.TString, AvgWidth: 60},
	)
	region.SetColStats("regionkey", schema.ColStats{Distinct: sz.Region, Min: expr.NewInt(0), Max: expr.NewInt(sz.Region - 1)})
	region.SetColStats("name", schema.ColStats{Distinct: sz.Region})

	nation := schema.NewTable("nation", "db-5", "L5", sz.Nation,
		schema.Column{Name: "nationkey", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString, AvgWidth: 14},
		schema.Column{Name: "regionkey", Type: expr.TInt},
		schema.Column{Name: "comment", Type: expr.TString, AvgWidth: 70},
	)
	nation.SetColStats("nationkey", schema.ColStats{Distinct: sz.Nation, Min: expr.NewInt(0), Max: expr.NewInt(sz.Nation - 1)})
	nation.SetColStats("name", schema.ColStats{Distinct: sz.Nation})
	nation.SetColStats("regionkey", schema.ColStats{Distinct: sz.Region, Min: expr.NewInt(0), Max: expr.NewInt(sz.Region - 1)})

	supplier := schema.NewTable("supplier", "db-2", "L2", sz.Supplier,
		schema.Column{Name: "suppkey", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString, AvgWidth: 18},
		schema.Column{Name: "address", Type: expr.TString, AvgWidth: 25},
		schema.Column{Name: "nationkey", Type: expr.TInt},
		schema.Column{Name: "phone", Type: expr.TString, AvgWidth: 15},
		schema.Column{Name: "acctbal", Type: expr.TFloat},
		schema.Column{Name: "comment", Type: expr.TString, AvgWidth: 60},
	)
	supplier.SetColStats("suppkey", schema.ColStats{Distinct: sz.Supplier, Min: expr.NewInt(1), Max: expr.NewInt(sz.Supplier)})
	supplier.SetColStats("nationkey", schema.ColStats{Distinct: sz.Nation, Min: expr.NewInt(0), Max: expr.NewInt(sz.Nation - 1)})

	part := schema.NewTable("part", "db-3", "L3", sz.Part,
		schema.Column{Name: "partkey", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString, AvgWidth: 33},
		schema.Column{Name: "mfgr", Type: expr.TString, AvgWidth: 14},
		schema.Column{Name: "brand", Type: expr.TString, AvgWidth: 10},
		schema.Column{Name: "type", Type: expr.TString, AvgWidth: 21},
		schema.Column{Name: "size", Type: expr.TInt},
		schema.Column{Name: "container", Type: expr.TString, AvgWidth: 10},
		schema.Column{Name: "retailprice", Type: expr.TFloat},
		schema.Column{Name: "comment", Type: expr.TString, AvgWidth: 15},
	)
	part.SetColStats("partkey", schema.ColStats{Distinct: sz.Part, Min: expr.NewInt(1), Max: expr.NewInt(sz.Part)})
	part.SetColStats("size", schema.ColStats{Distinct: 50, Min: expr.NewInt(1), Max: expr.NewInt(50)})
	part.SetColStats("type", schema.ColStats{Distinct: 150})
	part.SetColStats("brand", schema.ColStats{Distinct: 25})
	part.SetColStats("mfgr", schema.ColStats{Distinct: 5})

	partsupp := schema.NewTable("partsupp", "db-2", "L2", sz.Partsupp,
		schema.Column{Name: "partkey", Type: expr.TInt},
		schema.Column{Name: "suppkey", Type: expr.TInt},
		schema.Column{Name: "availqty", Type: expr.TInt},
		schema.Column{Name: "supplycost", Type: expr.TFloat},
		schema.Column{Name: "comment", Type: expr.TString, AvgWidth: 80},
	)
	partsupp.SetColStats("partkey", schema.ColStats{Distinct: sz.Part, Min: expr.NewInt(1), Max: expr.NewInt(sz.Part)})
	partsupp.SetColStats("suppkey", schema.ColStats{Distinct: sz.Supplier, Min: expr.NewInt(1), Max: expr.NewInt(sz.Supplier)})

	customer := schema.NewTable("customer", "db-1", "L1", sz.Customer,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString, AvgWidth: 18},
		schema.Column{Name: "address", Type: expr.TString, AvgWidth: 25},
		schema.Column{Name: "nationkey", Type: expr.TInt},
		schema.Column{Name: "phone", Type: expr.TString, AvgWidth: 15},
		schema.Column{Name: "acctbal", Type: expr.TFloat},
		schema.Column{Name: "mktsegment", Type: expr.TString, AvgWidth: 10},
		schema.Column{Name: "comment", Type: expr.TString, AvgWidth: 70},
	)
	customer.SetColStats("custkey", schema.ColStats{Distinct: sz.Customer, Min: expr.NewInt(1), Max: expr.NewInt(sz.Customer)})
	customer.SetColStats("nationkey", schema.ColStats{Distinct: sz.Nation, Min: expr.NewInt(0), Max: expr.NewInt(sz.Nation - 1)})
	customer.SetColStats("mktsegment", schema.ColStats{Distinct: 5})

	orders := schema.NewTable("orders", "db-1", "L1", sz.Orders,
		schema.Column{Name: "orderkey", Type: expr.TInt},
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "orderstatus", Type: expr.TString, AvgWidth: 1},
		schema.Column{Name: "totalprice", Type: expr.TFloat},
		schema.Column{Name: "orderdate", Type: expr.TDate},
		schema.Column{Name: "orderpriority", Type: expr.TString, AvgWidth: 15},
		schema.Column{Name: "clerk", Type: expr.TString, AvgWidth: 15},
		schema.Column{Name: "shippriority", Type: expr.TInt},
		schema.Column{Name: "comment", Type: expr.TString, AvgWidth: 45},
	)
	orders.SetColStats("orderkey", schema.ColStats{Distinct: sz.Orders, Min: expr.NewInt(1), Max: expr.NewInt(sz.Orders)})
	orders.SetColStats("custkey", schema.ColStats{Distinct: sz.Customer, Min: expr.NewInt(1), Max: expr.NewInt(sz.Customer)})
	orders.SetColStats("orderdate", schema.ColStats{Distinct: 2400, Min: expr.MustDate("1992-01-01"), Max: expr.MustDate("1998-08-02")})
	orders.SetColStats("orderstatus", schema.ColStats{Distinct: 3})

	lineitem := schema.NewTable("lineitem", "db-4", "L4", sz.Lineitem,
		schema.Column{Name: "orderkey", Type: expr.TInt},
		schema.Column{Name: "partkey", Type: expr.TInt},
		schema.Column{Name: "suppkey", Type: expr.TInt},
		schema.Column{Name: "linenumber", Type: expr.TInt},
		schema.Column{Name: "quantity", Type: expr.TInt},
		schema.Column{Name: "extendedprice", Type: expr.TFloat},
		schema.Column{Name: "discount", Type: expr.TFloat},
		schema.Column{Name: "tax", Type: expr.TFloat},
		schema.Column{Name: "returnflag", Type: expr.TString, AvgWidth: 1},
		schema.Column{Name: "linestatus", Type: expr.TString, AvgWidth: 1},
		schema.Column{Name: "shipdate", Type: expr.TDate},
		schema.Column{Name: "commitdate", Type: expr.TDate},
		schema.Column{Name: "receiptdate", Type: expr.TDate},
		schema.Column{Name: "shipinstruct", Type: expr.TString, AvgWidth: 25},
		schema.Column{Name: "shipmode", Type: expr.TString, AvgWidth: 10},
		schema.Column{Name: "comment", Type: expr.TString, AvgWidth: 27},
	)
	lineitem.SetColStats("orderkey", schema.ColStats{Distinct: sz.Orders, Min: expr.NewInt(1), Max: expr.NewInt(sz.Orders)})
	lineitem.SetColStats("partkey", schema.ColStats{Distinct: sz.Part, Min: expr.NewInt(1), Max: expr.NewInt(sz.Part)})
	lineitem.SetColStats("suppkey", schema.ColStats{Distinct: sz.Supplier, Min: expr.NewInt(1), Max: expr.NewInt(sz.Supplier)})
	lineitem.SetColStats("shipdate", schema.ColStats{Distinct: 2520, Min: expr.MustDate("1992-01-02"), Max: expr.MustDate("1998-12-01")})
	lineitem.SetColStats("returnflag", schema.ColStats{Distinct: 3})
	lineitem.SetColStats("quantity", schema.ColStats{Distinct: 50, Min: expr.NewInt(1), Max: expr.NewInt(50)})

	for _, t := range []*schema.Table{region, nation, supplier, part, partsupp, customer, orders, lineitem} {
		cat.MustAddTable(t)
	}
	return cat
}

// NewCatalogFragmented builds the Section 7.5 variant: Customer and
// Orders are horizontally fragmented across the first nLocs locations
// (evenly), everything else as in Table 2.
func NewCatalogFragmented(sf float64, nLocs int) *schema.Catalog {
	cat := NewCatalog(sf)
	if nLocs <= 1 {
		return cat
	}
	if nLocs > 5 {
		nLocs = 5
	}
	out := schema.NewCatalog()
	for _, l := range Locations() {
		out.AddLocation(l)
	}
	dbs := []string{"db-1", "db-2", "db-3", "db-4", "db-5"}
	for _, t := range cat.Tables() {
		if t.Name != "customer" && t.Name != "orders" {
			out.MustAddTable(t)
			continue
		}
		total := t.RowCount()
		frags := make([]schema.Fragment, nLocs)
		for i := 0; i < nLocs; i++ {
			rows := total / int64(nLocs)
			if i == nLocs-1 {
				rows = total - rows*int64(nLocs-1)
			}
			frags[i] = schema.Fragment{DB: dbs[i], Location: Locations()[i], RowCount: rows}
		}
		ft := &schema.Table{Name: t.Name, Columns: t.Columns, Fragments: frags, ColStats: t.ColStats}
		out.MustAddTable(ft)
	}
	return out
}
