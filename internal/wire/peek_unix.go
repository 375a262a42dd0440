//go:build unix

package wire

import (
	"io"
	"net"
	"syscall"
)

// peeker peeks at a socket without blocking or consuming a byte. The raw
// conn and the callback are bound once per connection, so a peek
// allocates nothing; its callers serialize peeks (Conn.mu).
type peeker struct {
	rc  syscall.RawConn // nil when the conn is not a socket
	fn  func(fd uintptr) bool
	n   int
	err error
	buf [1]byte
}

// bind ties the peeker to nc.
func (p *peeker) bind(nc net.Conn) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return
	}
	p.rc = rc
	p.fn = func(fd uintptr) bool {
		p.n, _, p.err = syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK)
		return true
	}
}

// peerClosed returns io.EOF once the peer has closed the socket, the
// error once it was reset, and nil while it is open or when the conn is
// not a socket.
func (p *peeker) peerClosed() error {
	if p.rc == nil {
		return nil
	}
	if err := p.rc.Read(p.fn); err != nil { // nil: fn ran
		return err
	}
	if p.n == 0 && p.err == nil {
		return io.EOF
	}
	if p.err == syscall.EAGAIN {
		return nil
	}
	return p.err
}
