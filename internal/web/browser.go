package web

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/vtime"
)

// Fetcher fetches one URL. *Transport implements it for plain paths; the
// C-Saw client implements it so a Browser routed through the proxy measures
// end-user PLT including adaptive circumvention.
type Fetcher interface {
	Fetch(ctx context.Context, host, path string) (*httpx.Response, error)
}

// Browser loads pages the way the paper measures PLT: fetch the base
// document, parse its embedded links, fetch every object over a bounded
// number of parallel connections, and report the elapsed virtual time until
// the last byte.
type Browser struct {
	Transport Fetcher
	// ClockSrc times the load (PLT); required.
	ClockSrc *vtime.Clock
	// MaxConns bounds parallel object fetches; browsers conventionally use
	// 6 per host, which is the default.
	MaxConns int
}

// maxRedirects bounds redirect following on the base document (censors
// redirect to block pages).
const maxRedirects = 3

// NewBrowser builds a Browser over a plain transport, timing with the
// transport's clock.
func NewBrowser(t *Transport) *Browser { return &Browser{Transport: t, ClockSrc: t.Clock} }

// PageResult is the outcome of one page load.
type PageResult struct {
	Host, Path string
	Status     int
	Body       []byte // final base document
	Redirects  int
	Objects    int // embedded objects successfully fetched
	ObjectErrs int
	Bytes      int // total bytes received
	PLT        time.Duration
	Err        error
}

// OK reports whether the base document loaded with a 2xx status.
func (r PageResult) OK() bool { return r.Err == nil && r.Status >= 200 && r.Status < 300 }

func (b *Browser) maxConns() int {
	if b.MaxConns > 0 {
		return b.MaxConns
	}
	return 6
}

// Load fetches host+path and its sub-resources via the browser's transport.
func (b *Browser) Load(ctx context.Context, host, path string) (res PageResult) {
	t := b.Transport
	start := b.ClockSrc.Now()
	res = PageResult{Host: host, Path: path}
	defer func() { res.PLT = b.ClockSrc.Since(start) }()

	curHost, curPath := host, path
	for {
		resp, err := t.Fetch(ctx, curHost, curPath)
		if err != nil {
			res.Err = err
			return res
		}
		res.Status = resp.StatusCode
		res.Body = resp.Body
		res.Bytes += len(resp.Body)
		if resp.StatusCode == 301 || resp.StatusCode == 302 {
			if res.Redirects >= maxRedirects {
				res.Err = fmt.Errorf("web: too many redirects for %s%s", host, path)
				return res
			}
			loc := resp.Header.Get("Location")
			if loc == "" {
				res.Err = fmt.Errorf("web: redirect without Location from %s%s", curHost, curPath)
				return res
			}
			res.Redirects++
			link := parseLink(loc)
			if link.Host != "" {
				curHost = link.Host
			}
			curPath = link.Path
			continue
		}
		break
	}

	links := ExtractLinks(res.Body)
	if len(links) == 0 {
		return res
	}

	sem := make(chan struct{}, b.maxConns())
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, link := range links {
		wg.Add(1)
		go func(link Link) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			oHost := link.Host
			if oHost == "" {
				oHost = curHost
			}
			resp, err := t.Fetch(ctx, oHost, link.Path)
			mu.Lock()
			defer mu.Unlock()
			if err != nil || resp.StatusCode != 200 {
				res.ObjectErrs++
				return
			}
			res.Objects++
			res.Bytes += len(resp.Body)
		}(link)
	}
	wg.Wait()
	return res
}

// LooksLikeHTML reports whether a body is an HTML document (used to decide
// whether sub-resources should be parsed).
func LooksLikeHTML(body []byte) bool {
	head := strings.ToLower(string(body[:min(len(body), 256)]))
	return strings.Contains(head, "<html") || strings.Contains(head, "<!doctype html")
}
