// Package ipc binds the virtualization protocol to real OS processes:
// a thin client (Dial/Session) and the gvmd server glue, both riding the
// pluggable connection layer in internal/transport. The wire codec
// (length-prefixed binary frames), the transports (unix, tcp, ring,
// inproc) and the data plane (transport.Plane: a file-backed shared-memory
// segment, with the session's rings in it or without, or inline over the
// wire) all live in internal/transport; the verb state machine lives once,
// in gvm.Manager, and the daemon executes frames against it in one place,
// transport's frame engine, behind the socket dispatcher and the ring host. This
// package only wires listeners, connections and the shards' owner locks to
// that machinery, and gives clients Session — the daemon-mode
// counterpart of the in-simulation vgpu API, which picks its carrier
// (socket or ring) once at REQ and sends every frame over it.
package ipc

import "gpuvirt/internal/transport"

// Wire types are defined by the transport layer; aliased here so client
// code reads naturally.
type (
	// Request is a wire-encoded protocol request.
	Request = transport.Request
	// Response is a wire-encoded protocol response.
	Response = transport.Response
)
