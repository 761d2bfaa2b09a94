//go:build race

package cgdqp

// The race detector's instrumentation allocates on its own account, about
// twice the engine's count on the warm path.
func init() { raceAllocScale = 2 }
