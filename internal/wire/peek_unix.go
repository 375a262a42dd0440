//go:build unix

package wire

import (
	"io"
	"net"
	"syscall"
)

// peerClosed peeks at a socket without blocking or consuming a byte:
// io.EOF once its peer has closed it, the error once it was reset, nil
// while it is open or when nc is not a socket.
func peerClosed(nc net.Conn) error {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	var b [1]byte
	n := -1
	if rerr := rc.Read(func(fd uintptr) bool {
		n, _, err = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK)
		return true
	}); rerr != nil {
		return rerr
	}
	if n == 0 && err == nil {
		return io.EOF
	}
	if err == syscall.EAGAIN {
		return nil
	}
	return err
}
