package executor

// ExecOptions tune one execution. The zero value is the default:
// kernels on.
type ExecOptions struct {
	// NoKernels forces the whole-chunk row interpreter even where
	// compiled columnar kernels are available — the reference path the
	// conformance matrix compares against. Results, shipped bytes and
	// audit logs are identical either way; only speed differs.
	NoKernels bool
}

// kernels reports whether compiled kernels should be used.
func (o ExecOptions) kernels() bool { return !o.NoKernels }
