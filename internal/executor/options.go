package executor

import "cgdqp/internal/network"

// ExecOptions tune one execution. The zero value is the default:
// kernels on, plain wire encoding.
type ExecOptions struct {
	// NoKernels forces the whole-chunk row interpreter even where
	// compiled columnar kernels are available — the reference path the
	// conformance matrix compares against. Results, shipped bytes and
	// audit logs are identical either way; only speed differs.
	NoKernels bool
	// Wire configures the serialized batch encoding used at Ship
	// boundaries (e.g. compression). Every exchange frames the shipped
	// stream into BatchSize-row frames and accounts the encoded size.
	Wire network.WireOptions
}

// kernels reports whether compiled kernels should be used.
func (o ExecOptions) kernels() bool { return !o.NoKernels }
