//go:build !unix

package wire

import "net"

// peerClosed cannot peek here: a link idle since its peer went away is
// found out by its next request.
func peerClosed(net.Conn) error { return nil }
