// TPC-H over five regions: the evaluation deployment of the paper
// (Table 2), loaded with generated data, optimized under the CR+A policy
// set, and executed. The example runs the six benchmark queries,
// printing for each whether the traditional plan would have been
// compliant, the measured shipping volume of the compliant plan, and
// its run's audit log: one line per shipment with the shipping trait
// that justifies it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

func main() {
	sf := flag.Float64("sf", 0.002, "TPC-H scale factor")
	flag.Parse()

	cat := tpch.NewCatalog(*sf)
	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	fmt.Printf("generating TPC-H data at SF %g (lineitem: %d rows) ...\n",
		*sf, tpch.SizesFor(*sf).Lineitem)
	if err := tpch.Generate(cat, cl); err != nil {
		log.Fatal(err)
	}

	pc := workload.TPCHSet(workload.SetCRA)
	fmt.Println("\nactive dataflow policies (set CR+A):")
	for _, db := range pc.Databases() {
		for _, e := range pc.ForDB(db) {
			fmt.Println("  ", e)
		}
	}

	compliant := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})
	traditional := optimizer.New(cat, pc, net, optimizer.Options{Compliant: false})

	for _, qn := range tpch.QueryNames() {
		sql := tpch.Queries[qn]
		tres, err := traditional.OptimizeSQL(sql)
		if err != nil {
			log.Fatalf("%s traditional: %v", qn, err)
		}
		tviol := compliant.Check(tres.Plan)
		cres, err := compliant.OptimizeSQL(sql)
		if err != nil {
			log.Fatalf("%s compliant: %v", qn, err)
		}

		audit := obs.NewAuditLog()
		rows, stats, err := executor.RunParallelOpts(context.Background(), cres.Plan, cl,
			&obs.Observer{Audit: audit}, executor.ExecOptions{})
		if err != nil {
			log.Fatalf("%s execute: %v", qn, err)
		}
		fmt.Printf("\n--- %s --- traditional plan: %s; compliant plan optimized in %v\n",
			qn, verdict(len(tviol)), cres.Stats.TotalTime)
		fmt.Printf("    %d result rows; shipped %d rows / %d bytes (%.1f ms simulated)\n",
			len(rows), stats.ShippedRows, stats.ShippedBytes, stats.ShipCost)
		for _, rec := range audit.Records() {
			fmt.Println("   ", rec)
		}
	}
}

func verdict(violations int) string {
	if violations == 0 {
		return "compliant"
	}
	return fmt.Sprintf("NON-COMPLIANT (%d violations)", violations)
}
