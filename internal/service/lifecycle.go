package service

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Jobs and sessions share one lifecycle core: an event log behind their
// NDJSON streams, one follower that serves every stream, and a retention
// clock that the one sweep (sweepExpired) reads.

// maxEvents bounds every event log; a follower that fell further behind
// resumes from the oldest retained event.
const maxEvents = 256

// logEvent is an event type an eventLog can stamp with its sequence number.
type logEvent[E any] interface {
	withSeq(seq int) E
}

func (e Event) withSeq(seq int) Event { e.Seq = seq; return e }

func (e SessionEvent) withSeq(seq int) SessionEvent { e.Seq = seq; return e }

// eventLog is an entity's bounded, sequence-stamped event log. It has its
// own lock, so a follower never waits on the entity's (a running build or
// delta batch). The zero value is an empty log.
type eventLog[E logEvent[E]] struct {
	mu       sync.Mutex
	events   []E
	base     int           // sequence number of events[0]
	wake     chan struct{} // closed by the next append; nil until a follower waits
	terminal bool          // the entity's terminal event is in the log
}

// append stamps e with the next sequence number, trims the log to
// maxEvents, and wakes the followers. terminal marks e as the entity's last
// event.
func (l *eventLog[E]) append(e E, terminal bool) {
	l.mu.Lock()
	l.events = append(l.events, e.withSeq(l.base+len(l.events)))
	if len(l.events) > maxEvents {
		var zero E
		l.events[0] = zero // drop what the trimmed event references
		l.events = l.events[1:]
		l.base++
	}
	l.terminal = l.terminal || terminal
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
	l.mu.Unlock()
}

// since returns a copy of the events with sequence >= from (clamped to the
// oldest retained one), the sequence to resume from, a channel the next
// append closes, and whether the terminal event is in the log.
func (l *eventLog[E]) since(from int) (evs []E, next int, wake <-chan struct{}, terminal bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := max(from-l.base, 0); i < len(l.events) {
		evs = append([]E(nil), l.events[i:]...)
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return evs, l.base + len(l.events), l.wake, l.terminal
}

// follow streams log as NDJSON until its terminal event. The one early exit
// is the client hanging up: Close ends every live job and session with a
// terminal event, so a server shutdown ends a stream through that event,
// never around it.
func follow[E logEvent[E]](w http.ResponseWriter, r *http.Request, log *eventLog[E]) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for from := 0; ; {
		evs, next, wake, terminal := log.since(from)
		for _, e := range evs {
			if enc.Encode(e) != nil {
				return
			}
		}
		from = next
		if fl != nil {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// retentionClock is an entity's retention timestamp in Unix nanoseconds. It
// is read and written without the entity's lock, so the sweep never waits
// on a running build or delta batch. Zero means the entity never expires: a
// job's clock is set when it turns terminal, a session's on every use.
type retentionClock struct{ ns atomic.Int64 }

func (c *retentionClock) touch() { c.ns.Store(time.Now().UnixNano()) }

// expired reports whether the clock is set and older than cutoff.
func (c *retentionClock) expired(cutoff time.Time) bool {
	ns := c.ns.Load()
	return ns != 0 && ns < cutoff.UnixNano()
}

// sweepExpired is the one retention sweep: it evicts terminal jobs older
// than JobRetention and closes sessions idle past SessionRetention, judging
// each by its retention clock alone, and returns how many it removed.
func (s *Server) sweepExpired(now time.Time) int {
	evicted := 0
	if ret := s.cfg.JobRetention; ret > 0 {
		cutoff := now.Add(-ret)
		s.mu.Lock()
		for id, j := range s.jobs {
			if j.retention.expired(cutoff) {
				delete(s.jobs, id)
				evicted++
			}
		}
		s.mu.Unlock()
		s.met.jobsEvicted.Add(int64(evicted))
	}
	if ret := s.cfg.SessionRetention; ret > 0 {
		cutoff := now.Add(-ret)
		evicted += s.closeSessions(reasonExpired, func(sess *Session) bool {
			return sess.retention.expired(cutoff)
		})
	}
	return evicted
}

// janitor runs the sweep every quarter of the shorter retention, within
// [10ms, 1m].
func (s *Server) janitor() {
	defer s.wg.Done()
	var ret time.Duration
	for _, r := range []time.Duration{s.cfg.JobRetention, s.cfg.SessionRetention} {
		if r > 0 && (ret == 0 || r < ret) {
			ret = r
		}
	}
	t := time.NewTicker(min(max(ret/4, 10*time.Millisecond), time.Minute))
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-t.C:
			s.sweepExpired(now)
		}
	}
}
