package httpx

import (
	"context"
	"io"
	"time"

	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// DefaultTimeout bounds one request/response exchange in virtual time. It is
// deliberately generous: blocked requests are expected to fail via the more
// specific dial/read timeouts first.
const DefaultTimeout = 60 * time.Second

// Client issues HTTP exchanges over whatever dialer it is given — netem
// hosts, Tor circuits, Lantern tunnels, and CONNECT proxies all provide a
// netem.DialFunc. One connection is used per exchange (Connection: close
// semantics), which is also what keeps censor stream-inspection state per
// request.
type Client struct {
	Dial    netem.DialFunc
	Clock   *vtime.Clock
	Timeout time.Duration // virtual; DefaultTimeout when zero
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// Do connects to address, sends req, and reads one response. The address is
// decoupled from req.Host on purpose: domain fronting connects to the front
// while naming the back end in the Host header, and the "IP as hostname"
// local fix connects to the blocked site's IP with the IP in the Host line.
func (c *Client) Do(ctx context.Context, address string, req *Request) (*Response, error) {
	ctx, cancel := c.Clock.WithTimeout(ctx, c.timeout())
	defer cancel()
	conn, err := c.Dial(ctx, address)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	defer netem.Bind(ctx, conn).Release()
	return RoundTrip(ctx, conn, req)
}

// RoundTrip runs one client exchange on an established stream: it writes
// req, asking for Connection: close unless the caller chose otherwise, and
// parses one response, whose body is read-only (see Response.Body). req
// itself is never modified — callers reuse requests across endpoints and
// approaches. ctx only carries the flight-recorder lane (see
// ReadResponseCtx); bounding the exchange is the job of whoever owns the
// stream.
func RoundTrip(ctx context.Context, stream io.ReadWriter, req *Request) (*Response, error) {
	var closing Field
	if req.Header.Get("Connection") == "" {
		closing = Field{"Connection", "close"}
	}
	if err := writeRequest(stream, req, closing); err != nil {
		return nil, err
	}
	br := GetReader(stream)
	defer PutReader(br)
	return ReadResponseCtx(ctx, br, stream)
}

// Get fetches host+target from address.
func (c *Client) Get(ctx context.Context, address, host, target string) (*Response, error) {
	return c.Do(ctx, address, NewRequest("GET", host, target))
}
