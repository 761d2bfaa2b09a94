package executor

import "cgdqp/internal/expr"

// ExecOptions tune one execution. The zero value is the default.
type ExecOptions struct {
	// NoKernels compiles every expression — filter predicates,
	// projections, aggregate arguments, sort keys — as one interpreter
	// node, which runs the row interpreter over each batch's row view,
	// instead of the columnar kernels. Results, shipped bytes and audit
	// logs are identical either way; only speed differs.
	NoKernels bool
}

// kernel compiles e over input columns of the given types.
func (o ExecOptions) kernel(e expr.Expr, types []expr.Type) *expr.Kernel {
	if o.NoKernels {
		return expr.Interpret(e, types)
	}
	return expr.Compile(e, types)
}

// pred compiles a filter predicate over input columns of the given
// types.
func (o ExecOptions) pred(e expr.Expr, types []expr.Type) *expr.PredKernel {
	if o.NoKernels {
		return expr.InterpretPred(e, types)
	}
	return expr.CompilePred(e, types)
}
