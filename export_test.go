package cgdqp

import "cgdqp/internal/policy"

// evalMemo reports the length of the optimizer's policy-evaluator memo
// and its bound.
func (s *System) evalMemo() (n, bound int) {
	return s.Optimizer().Evaluator.MemoLen(), policy.MemoSize
}
