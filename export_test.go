package cgdqp

import "cgdqp/internal/policy"

// evalMemo reports the length of the optimizer's policy-evaluator memo
// and its bound.
func (s *System) evalMemo() (n, bound int) {
	return s.Optimizer().Evaluator.MemoLen(), policy.MemoSize
}

// setMaxExprs bounds the optimizer's memo search, as
// optimizer.Options.MaxExprs (the facade leaves it at its default).
func (s *System) setMaxExprs(n int) { s.Optimizer().Opts.MaxExprs = n }
