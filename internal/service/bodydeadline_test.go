package service_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ftspanner/ftspanner/internal/cluster"
	"github.com/ftspanner/ftspanner/internal/service"
)

// testBodyDeadline is the body read deadline these tests run under.
const testBodyDeadline = 150 * time.Millisecond

// forwardedHeader marks a request a fleet peer forwarded
// (cluster.forwardedHeader).
const forwardedHeader = "X-Ftspanner-Forwarded"

// deadlineTargets lowers the body read deadline for the test and serves a
// single node and a one-node fleet over real TCP, returning their base
// URLs.
func deadlineTargets(t *testing.T) (single, fleet string) {
	t.Helper()
	t.Cleanup(service.SetBodyReadTimeout(testBodyDeadline)) // runs after the servers close
	newService := func() *service.Server {
		svc, err := service.New(service.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		return svc
	}
	node, err := cluster.New(cluster.Config{Self: "solo:1", Peers: []string{"solo:1"}, Local: newService()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	singleSrv, fleetSrv := httptest.NewServer(newService()), httptest.NewServer(node)
	t.Cleanup(singleSrv.Close)
	t.Cleanup(fleetSrv.Close)
	return singleSrv.URL, fleetSrv.URL
}

// createSession creates a session over a 3-vertex path at base and returns
// its ID.
func createSession(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"graph":"p 3 2\ne 0 1 1\ne 1 2 1\n","stretch":3,"faults":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var created struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: http %d, %v", resp.StatusCode, err)
	}
	return created.ID
}

// TestBodyDeadlineStalledBody: a request whose body stalls after its
// headers, with a declared length or chunked, is answered 408 once the
// body read deadline passes and its connection is closed, on every
// endpoint that reads a body, on a single node, at a fleet entry and on a
// forwarded hop.
func TestBodyDeadlineStalledBody(t *testing.T) {
	single, fleet := deadlineTargets(t)
	createSession(t, single)
	createSession(t, fleet)
	targets := []struct {
		name, base string
		forwarded  bool
	}{
		{"single node", single, false},
		{"fleet entry", fleet, false},
		{"forwarded hop", fleet, true},
	}
	endpoints := []string{"/v1/jobs", "/v1/verify", "/v1/sessions", "/v1/sessions/s1/deltas"}
	stalls := []struct{ name, header, sent string }{
		{"declared length", "Content-Length: 1000\r\n", "{"},
		{"chunked", "Transfer-Encoding: chunked\r\n", "5\r\n{"},
	}
	var wg sync.WaitGroup
	for _, tg := range targets {
		for _, ep := range endpoints {
			for _, st := range stalls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					name := fmt.Sprintf("%s POST %s, %s", tg.name, ep, st.name)
					conn, err := net.Dial("tcp", strings.TrimPrefix(tg.base, "http://"))
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					defer conn.Close()
					req := "POST " + ep + " HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n" + st.header
					if tg.forwarded {
						req += forwardedHeader + ": peer:1\r\n"
					}
					start := time.Now()
					// The client gives up well after the deadline.
					_ = conn.SetDeadline(start.Add(testBodyDeadline + 10*time.Second))
					if _, err := io.WriteString(conn, req+"\r\n"+st.sent); err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					br := bufio.NewReader(conn)
					resp, err := http.ReadResponse(br, nil)
					if err != nil {
						t.Errorf("%s: no answer after %v: %v", name, time.Since(start), err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if took := time.Since(start); resp.StatusCode != http.StatusRequestTimeout ||
						took < testBodyDeadline/2 || took > testBodyDeadline+5*time.Second {
						t.Errorf("%s: http %d after %v, want 408 after the %v deadline", name, resp.StatusCode, took, testBodyDeadline)
					}
					// The rest of the body would be read as the next request,
					// so the server closes the connection.
					if _, err := br.ReadByte(); err != io.EOF {
						t.Errorf("%s: connection still open after the 408 (%v)", name, err)
					}
				}()
			}
		}
	}
	wg.Wait()
}

// TestBodyDeadlineEventsStream: an events stream opened on a keep-alive
// connection right after a request with a body outlives the body read
// deadline and still delivers the session's next event.
func TestBodyDeadlineEventsStream(t *testing.T) {
	single, fleet := deadlineTargets(t)
	for name, base := range map[string]string{"single node": single, "fleet entry": fleet} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
			br := bufio.NewReader(conn)
			body := `{"graph":"p 3 2\ne 0 1 1\ne 1 2 1\n","stretch":3,"faults":1}`
			fmt.Fprintf(conn, "POST /v1/sessions HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			var created struct{ ID string }
			err = json.NewDecoder(resp.Body).Decode(&created)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusCreated {
				t.Fatalf("create session: http %d, %v", resp.StatusCode, err)
			}

			fmt.Fprintf(conn, "GET /v1/sessions/%s/events HTTP/1.1\r\nHost: test\r\n\r\n", created.ID)
			stream, err := http.ReadResponse(br, nil)
			if err != nil || stream.StatusCode != http.StatusOK {
				t.Fatalf("events: %v, %v", stream, err)
			}
			lines := bufio.NewReader(stream.Body)
			if first, err := lines.ReadString('\n'); err != nil || !strings.Contains(first, `"created"`) {
				t.Fatalf("first event %q, %v", first, err)
			}
			time.Sleep(3 * testBodyDeadline)
			delta, err := http.Post(base+"/v1/sessions/"+created.ID+"/deltas", "application/json",
				strings.NewReader(`{"deltas":[{"op":"insert","u":0,"v":2,"weight":3}]}`))
			if err != nil {
				t.Fatal(err)
			}
			delta.Body.Close()
			if delta.StatusCode != http.StatusOK {
				t.Fatalf("deltas: http %d", delta.StatusCode)
			}
			if next, err := lines.ReadString('\n'); err != nil || !strings.Contains(next, `"deltas"`) {
				t.Fatalf("event after %v: %q, %v", 3*testBodyDeadline, next, err)
			}
		})
	}
}
