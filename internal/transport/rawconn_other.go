//go:build !linux

package transport

import "net"

// rawConn is empty off Linux: every connection takes the net.Conn calls.
type rawConn struct{}

func (c *Conn) bindRaw(net.Conn)               {}
func (c *Conn) readSome(p []byte) (int, error) { return c.c.Read(p) }
func (c *Conn) flush() error                   { return c.flushConn() }
