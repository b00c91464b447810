package remote

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"
)

// SplitAddr parses a worker address: "unix:/path/to.sock" selects a
// unix socket, "tcp:host:port" a TCP one, and a bare "host:port"
// defaults to TCP.
func SplitAddr(addr string) (network, address string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	default:
		return "tcp", addr
	}
}

// SettingError is an OpenPool error in the settings themselves, not in
// the listener: drivers report it as a usage error.
type SettingError string

func (e SettingError) Error() string { return string(e) }

// OpenPool opens a driver's one worker pool for the life of the
// process: it checks the -hedge-after delay against the -workers-addr
// address, then listens on addr and serves a pool there, which the
// driver attaches with Into. No address gives a nil pool, which Wrap
// ignores. Closing the pool at exit tells the workers goodbye.
func OpenPool(addr string, hedgeAfter time.Duration) (*Pool, error) {
	if hedgeAfter < 0 {
		return nil, SettingError(fmt.Sprintf("-hedge-after must be >= 0, got %v", hedgeAfter))
	}
	if addr == "" {
		if hedgeAfter > 0 {
			return nil, SettingError("-hedge-after requires -workers-addr (where cmd/brokerd workers connect)")
		}
		return nil, nil
	}
	ln, err := net.Listen(SplitAddr(addr))
	if err != nil {
		return nil, fmt.Errorf("workers-addr: %w", err)
	}
	pool := NewPool(PoolOptions{HedgeAfter: hedgeAfter})
	pool.Serve(ln)
	return pool, nil
}

// Dial connects a worker to the pool at addr (see SplitAddr).
func Dial(ctx context.Context, addr string) (net.Conn, error) {
	network, address := SplitAddr(addr)
	var d net.Dialer
	return d.DialContext(ctx, network, address)
}
