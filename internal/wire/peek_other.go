//go:build !unix

package wire

import "net"

// peeker cannot peek here: a link idle since its peer went away is found
// out by its next request.
type peeker struct{}

func (*peeker) bind(net.Conn)     {}
func (*peeker) peerClosed() error { return nil }
