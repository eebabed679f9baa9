package core

import "repro/internal/transport"

// The transport seam, spelled through core for the module root and the
// benchmark harness. The definitions live in internal/transport.
type (
	Transport = transport.Transport
	Node      = transport.Node
	Handler   = transport.Handler
	Scatterer = transport.Scatterer
)

// ErrStalled reports that a blocking Submit can never resolve because the
// transport ran out of work to do.
var ErrStalled = transport.ErrStalled
