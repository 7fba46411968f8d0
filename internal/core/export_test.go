package core

import (
	"context"
	"net"

	"csaw/internal/globaldb"
)

// GlobalLookup exposes the crowd-list lookup FetchURL performs, so tests can
// assert on the entry itself rather than on the fetch it steers.
func (c *Client) GlobalLookup(url string) (globaldb.Entry, bool) { return c.globalLookup(url) }

// Dial dials under the client's connection budget.
func (c *Client) Dial(ctx context.Context, addr string) (net.Conn, error) { return c.dial(ctx, addr) }
