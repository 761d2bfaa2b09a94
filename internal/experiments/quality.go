package experiments

import (
	"fmt"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// QualityRow is one bar pair of Figures 6(g)/6(h): the simulated
// execution (shipping) cost of both optimizers' plans for one query.
type QualityRow struct {
	Query                string
	Set                  workload.SetName
	TraditionalCost      float64 // measured shipping cost (ms, simulated)
	CompliantCost        float64
	Scaled               float64 // CompliantCost / TraditionalCost
	TraditionalCompliant bool    // C / NC marker
	SamePlan             bool    // = / ≠ marker
	RowsAgree            bool    // result equivalence check
}

// Fig6Quality reproduces Figures 6(g) and 6(h): generate data, execute
// the plan each optimizer produces, and measure the execution cost that
// arises from shipping intermediate data between sites (the message cost
// model prices every SHIP operator). Pass workload.SetC for 6(g) and
// workload.SetCR for 6(h).
func Fig6Quality(cfg Config, set workload.SetName) ([]QualityRow, error) {
	cat := tpch.NewCatalog(cfg.ExecSF)
	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	if err := tpch.Generate(cat, cl); err != nil {
		return nil, err
	}
	pc := workload.TPCHSet(set)
	copt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})
	topt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: false})

	var out []QualityRow
	for _, qn := range tpch.QueryNames() {
		sql := tpch.Queries[qn]
		tres, err := topt.OptimizeSQL(sql)
		if err != nil {
			return nil, fmt.Errorf("traditional %s: %w", qn, err)
		}
		cres, err := copt.OptimizeSQL(sql)
		if err != nil {
			return nil, fmt.Errorf("compliant %s: %w", qn, err)
		}
		row := QualityRow{
			Query:                qn,
			Set:                  set,
			TraditionalCompliant: len(copt.Check(tres.Plan)) == 0,
			SamePlan:             tres.Plan.Digest() == cres.Plan.Digest(),
		}
		tRows, tStats, err := executor.Run(tres.Plan, cl)
		if err != nil {
			return nil, fmt.Errorf("run traditional %s: %w", qn, err)
		}
		row.TraditionalCost = tStats.ShipCost
		cRows, cStats, err := executor.Run(cres.Plan, cl)
		if err != nil {
			return nil, fmt.Errorf("run compliant %s: %w", qn, err)
		}
		row.CompliantCost = cStats.ShipCost
		row.RowsAgree = len(tRows) == len(cRows)
		if row.TraditionalCost > 0 {
			row.Scaled = row.CompliantCost / row.TraditionalCost
		} else if row.CompliantCost == 0 {
			row.Scaled = 1
		}
		out = append(out, row)
	}
	return out, nil
}
