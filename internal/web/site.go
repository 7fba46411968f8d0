// Package web models the web content and clients of the emulated internet:
// sites made of base pages plus embedded objects, origin and CDN servers
// that serve them over HTTP and pseudo-TLS, a pluggable Transport used by
// every circumvention path, and a browser-like Fetcher that measures page
// load times (PLTs) the way the paper's evaluation does — base page fetch,
// parse embedded links, parallel object fetches, PLT = time until the last
// object lands.
package web

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Object is an embedded resource served by the page's own host.
type Object struct {
	Path string
	Size int
}

// ObjectRef is an embedded resource on another host (e.g. a CDN); pages with
// external refs are how the pilot study surfaced CDN-server blocking (§7.4).
type ObjectRef struct {
	Host string
	Path string
	Size int
}

// Page is a base HTML document plus its embedded objects.
type Page struct {
	Host     string
	Path     string
	Title    string
	BaseSize int // target size of the HTML document in bytes
	Objects  []Object
	External []ObjectRef

	site *Site // the site serving the page; nil for a page built by hand
}

// Site is a host and its pages.
type Site struct {
	Host    string
	mu      sync.RWMutex
	pages   map[string]*Page
	objects map[string]int // size of every same-host object, by path
	// bodies holds what has been served so far, by path: a page's HTML or
	// an object's filler is produced on its first request and sent to every
	// later one, so the bytes are never modified. AddPage and AddExternal
	// drop the entries they outdate.
	bodies map[string][]byte
}

// NewSite returns an empty site for host.
func NewSite(host string) *Site {
	return &Site{
		Host:    strings.ToLower(host),
		pages:   make(map[string]*Page),
		objects: make(map[string]int),
		bodies:  make(map[string][]byte),
	}
}

// AddPage creates a page at path with the given title and base size, plus
// one same-host object per size in objSizes (auto-named under
// /assets/). It returns the page for further decoration.
func (s *Site) AddPage(path, title string, baseSize int, objSizes ...int) *Page {
	if path == "" {
		path = "/"
	}
	p := &Page{Host: s.Host, Path: path, Title: title, BaseSize: baseSize, site: s}
	slug := strings.Trim(strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			return r
		}
		return '-'
	}, strings.ToLower(path)), "-")
	if slug == "" {
		slug = "index"
	}
	for i, size := range objSizes {
		p.Objects = append(p.Objects, Object{Path: fmt.Sprintf("/assets/%s-%d.bin", slug, i), Size: size})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.pages[path]; old != nil {
		for _, o := range old.Objects {
			s.dropObject(o.Path)
		}
		for _, o := range old.External {
			if o.Host == s.Host {
				s.dropObject(o.Path)
			}
		}
	}
	s.pages[path] = p
	delete(s.bodies, path)
	for _, o := range p.Objects {
		s.setObject(o.Path, o.Size)
	}
	return p
}

// setObject indexes a same-host object. Caller must hold s.mu.
func (s *Site) setObject(path string, size int) {
	s.objects[path] = size
	delete(s.bodies, path)
}

// dropObject is the inverse of setObject.
func (s *Site) dropObject(path string) {
	delete(s.objects, path)
	delete(s.bodies, path)
}

// AddExternal adds an object served from another host to the page (or from
// the page's own host, which then serves it).
func (p *Page) AddExternal(host, path string, size int) *Page {
	ref := ObjectRef{Host: strings.ToLower(host), Path: path, Size: size}
	s := p.site
	if s == nil {
		p.External = append(p.External, ref)
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p.External = append(p.External, ref)
	delete(s.bodies, p.Path)
	if ref.Host == s.Host {
		s.setObject(path, size)
	}
	return p
}

// Paths returns all page paths, sorted.
func (s *Site) Paths() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	paths := make([]string, 0, len(s.pages))
	for p := range s.pages {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// body returns what the site serves at path — a page's HTML (html true) or
// a same-host object's filler — or nil when there is nothing there. The
// bytes are shared with every other request for path: read-only.
func (s *Site) body(path string) (b []byte, html bool) {
	s.mu.RLock()
	b, html = s.bodies[path], s.pages[path] != nil
	s.mu.RUnlock()
	if b != nil {
		return b, html
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.pages[path]; p != nil {
		b, html = RenderHTML(p), true
	} else if size, ok := s.objects[path]; ok {
		b, html = ObjectBody(size), false
	} else {
		return nil, false
	}
	s.bodies[path] = b
	return b, html
}

// RenderHTML produces the page's HTML: head with title, img tags for every
// object (relative for same-host, absolute for external), and a <p> of
// deterministic filler. The filler is sized without counting its opening
// "<p>", so a page is BaseSize+3 bytes long. A BaseSize with no room for
// the skeleton (head, tags, closing tags) plus four bytes of filler yields
// the skeleton alone, or the skeleton and an empty <p></p> when one to
// three bytes of room are left. Body digests and the golden trace depend
// on these bytes (TestRenderHTMLSizes pins them).
func RenderHTML(p *Page) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html>\n<head><title>%s</title></head>\n<body>\n<h1>%s</h1>\n", p.Title, p.Title)
	for _, o := range p.Objects {
		fmt.Fprintf(&b, "<img src=\"%s\" alt=\"asset\">\n", o.Path)
	}
	for _, o := range p.External {
		fmt.Fprintf(&b, "<img src=\"http://%s%s\" alt=\"ext\">\n", o.Host, o.Path)
	}
	const tail = "</body>\n</html>\n"
	filler := p.BaseSize - b.Len() - len(tail)
	if filler > 0 {
		b.WriteString("<p>")
		chunk := "lorem ipsum dolor sit amet consectetur adipiscing elit sed do "
		for filler > len(chunk)+4 {
			b.WriteString(chunk)
			filler -= len(chunk)
		}
		b.WriteString(strings.Repeat(".", max(filler-4, 0)))
		b.WriteString("</p>")
	}
	b.WriteString(tail)
	return []byte(b.String())
}

// Link is a reference extracted from HTML.
type Link struct {
	Host string // "" for same-host
	Path string
}

// ExtractLinks scans HTML for src attributes (img, script, iframe) and
// stylesheet hrefs — the subset of sub-resources the emulated browser loads.
func ExtractLinks(html []byte) []Link {
	var links []Link
	s := string(html)
	for _, attr := range []string{`src="`, `href="`} {
		rest := s
		for {
			i := strings.Index(rest, attr)
			if i < 0 {
				break
			}
			rest = rest[i+len(attr):]
			j := strings.IndexByte(rest, '"')
			if j < 0 {
				break
			}
			val := rest[:j]
			rest = rest[j+1:]
			if attr == `href="` && !strings.HasSuffix(val, ".css") {
				continue
			}
			links = append(links, parseLink(val))
		}
	}
	return links
}

func parseLink(val string) Link {
	for _, scheme := range []string{"http://", "https://"} {
		if rest, ok := strings.CutPrefix(val, scheme); ok {
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				return Link{Host: strings.ToLower(rest[:i]), Path: rest[i:]}
			}
			return Link{Host: strings.ToLower(rest), Path: "/"}
		}
	}
	if !strings.HasPrefix(val, "/") {
		val = "/" + val
	}
	return Link{Path: val}
}

// ObjectBody returns deterministic filler bytes of the given size for
// serving objects.
func ObjectBody(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte('a' + (i*7)%26)
	}
	return b
}
