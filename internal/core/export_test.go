package core

import "csaw/internal/globaldb"

// GlobalLookup exposes the crowd-list lookup FetchURL performs, so tests can
// assert on the entry itself rather than on the fetch it steers.
func (c *Client) GlobalLookup(url string) (globaldb.Entry, bool) { return c.globalLookup(url) }
