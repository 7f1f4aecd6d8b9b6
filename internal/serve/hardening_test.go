package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/oracle"
)

func TestReadyzAndHealthz(t *testing.T) {
	srv := newTestServer(t, fixtureRows(80, 12, 4), Config{})
	ts := startHTTP(t, srv)
	var st map[string]string
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &st)
	if st["status"] != "ok" {
		t.Fatalf("healthz: %v", st)
	}
	getJSON(t, ts.URL+"/v1/readyz", http.StatusOK, &st)
	if st["status"] != "ready" {
		t.Fatalf("readyz: %v", st)
	}
}

func TestStartingHandlerNotReady(t *testing.T) {
	ts := httptest.NewServer(StartingHandler())
	defer ts.Close()
	var st map[string]string
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &st)
	if st["status"] != "ok" {
		t.Fatalf("healthz during startup: %v", st)
	}
	getJSON(t, ts.URL+"/v1/readyz", http.StatusServiceUnavailable, &st)
	if st["status"] != "recovering" {
		t.Fatalf("readyz during startup: %v", st)
	}
	getJSON(t, ts.URL+"/v1/rules?k=3", http.StatusServiceUnavailable, nil)
}

func TestCanonicalEndpoint(t *testing.T) {
	rows := fixtureRows(150, 16, 8)
	srv := newTestServer(t, rows, Config{})
	ts := startHTTP(t, srv)
	resp, err := http.Get(ts.URL + "/v1/canonical")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	wantCanon := oracle.Canonical(oracle.Frequent(rows, testMinSup))
	if !bytes.Equal(body, wantCanon) {
		t.Fatalf("canonical endpoint served %d bytes, want the reference's %d",
			len(body), len(wantCanon))
	}
	if got := resp.Header.Get("X-Serve-Version"); got != "1" {
		t.Fatalf("X-Serve-Version = %q", got)
	}
}

// TestPanicRecoveryMiddleware injects a panicking handler behind the
// middleware: the client sees a 500, the process survives, the counter
// increments, and the next request works.
func TestPanicRecoveryMiddleware(t *testing.T) {
	srv := newTestServer(t, fixtureRows(60, 12, 5), Config{})
	boom := srv.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("injected")
	}))
	ts := httptest.NewServer(boom)
	defer ts.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/")
		if err != nil {
			t.Fatalf("request %d after panic: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	if got := srv.Stats().Panics; got != 3 {
		t.Fatalf("Panics = %d, want 3", got)
	}
}

// TestSlowlorisHeaderStallRejected: a client that opens a connection and
// trickles no header bytes must be cut off by ReadHeaderTimeout instead
// of holding the connection forever.
func TestSlowlorisHeaderStallRejected(t *testing.T) {
	srv := newTestServer(t, fixtureRows(40, 12, 6), Config{})
	httpSrv := NewHTTPServer(srv.Handler())
	httpSrv.ReadHeaderTimeout = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a partial request line, then stall.
	if _, err := conn.Write([]byte("GET /v1/rules HTTP/1.1\r\nHost: x\r\nX-Stall:")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	_, rerr := conn.Read(buf)
	if rerr == nil {
		t.Fatal("stalled connection got a response byte without completing headers")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("connection survived %v, want the ~150ms header timeout to cut it", waited)
	}

	// A well-behaved client on the same server still gets served.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprintf(conn2, "GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn2).ReadString('\n')
	if err != nil || !strings.Contains(line, "200") {
		t.Fatalf("healthy client: %q, %v", line, err)
	}
}

// TestNewHTTPServerDefaults pins the default slowloris guards.
func TestNewHTTPServerDefaults(t *testing.T) {
	hs := NewHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != 5*time.Second || hs.ReadTimeout != 60*time.Second ||
		hs.IdleTimeout != 120*time.Second {
		t.Fatalf("defaults: header %v read %v idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
}
