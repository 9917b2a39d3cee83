package botsdk

import (
	"errors"
	"sync"
	"time"
)

// Reconnector keeps a bot connected across gateway disconnects: when
// the underlying session dies it re-dials with exponential backoff,
// re-identifies, and re-registers every handler — what long-lived
// production bots (the paper's 3M-guild population) do implicitly.
type Reconnector struct {
	addr  string
	token string
	opts  Options

	// OnReconnect, when set, observes each successful reconnect with
	// its 1-based attempt count. Set before the first disconnect.
	OnReconnect func(attempt int)
	// MaxBackoff caps the redial backoff (default 2s).
	MaxBackoff time.Duration

	mu       sync.Mutex
	sess     *Session
	handlers []registeredHandler
	closed   bool
	wakeups  int
	// stop is closed by Close, cutting short a redial backoff.
	stop chan struct{}

	wg sync.WaitGroup
}

type registeredHandler struct {
	eventType string
	h         Handler
}

// ErrReconnectorClosed is returned by calls on a closed Reconnector.
var ErrReconnectorClosed = errors.New("botsdk: reconnector closed")

// Reconnect dials the gateway and returns a self-healing session
// wrapper.
func Reconnect(addr, token string, opts Options) (*Reconnector, error) {
	sess, err := Dial(addr, token, opts)
	if err != nil {
		return nil, err
	}
	r := &Reconnector{addr: addr, token: token, opts: opts, sess: sess, MaxBackoff: 2 * time.Second,
		stop: make(chan struct{})}
	r.wg.Add(1)
	go r.watch(sess)
	return r, nil
}

// watch waits for the current session to die and re-dials.
func (r *Reconnector) watch(sess *Session) {
	defer r.wg.Done()
	<-sess.Done()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	maxBackoff := r.MaxBackoff
	r.mu.Unlock()

	backoff := 25 * time.Millisecond
	for attempt := 1; ; attempt++ {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()

		next, err := Dial(r.addr, r.token, r.opts)
		if err == nil {
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				next.Close()
				return
			}
			r.sess = next
			for _, rh := range r.handlers {
				next.On(rh.eventType, rh.h)
			}
			r.wakeups++
			cb := r.OnReconnect
			r.mu.Unlock()
			if cb != nil {
				cb(attempt)
			}
			r.wg.Add(1)
			go r.watch(next)
			return
		}
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-r.stop:
			t.Stop()
			return
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// Session returns the current live session. It may die at any moment;
// prefer Do for request sequences.
func (r *Reconnector) Session() *Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sess
}

// Reconnects reports how many times the wrapper has re-established the
// connection.
func (r *Reconnector) Reconnects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wakeups
}

// On registers a handler on the current session and on every future
// reconnected session.
func (r *Reconnector) On(eventType string, h Handler) {
	r.mu.Lock()
	r.handlers = append(r.handlers, registeredHandler{eventType, h})
	sess := r.sess
	r.mu.Unlock()
	sess.On(eventType, h)
}

// OnMessage registers a MESSAGE_CREATE convenience handler.
func (r *Reconnector) OnMessage(h func(s *Session, m *Message)) {
	r.On("MESSAGE_CREATE", func(s *Session, e Event) {
		if e.Message != nil {
			h(s, e.Message)
		}
	})
}

// Do runs fn against the current session, retrying once per fresh
// session (up to retries) when the session died underneath it.
func (r *Reconnector) Do(retries int, fn func(*Session) error) error {
	if retries < 1 {
		retries = 1
	}
	var lastErr error
	for i := 0; i < retries; i++ {
		sess := r.Session()
		if sess == nil {
			return ErrReconnectorClosed
		}
		lastErr = fn(sess)
		if lastErr == nil || !errors.Is(lastErr, ErrClosed) {
			return lastErr
		}
		// The session died; wait briefly for the watcher to replace it.
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			r.mu.Lock()
			replaced := r.sess != sess
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return ErrReconnectorClosed
			}
			if replaced {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return lastErr
}

// Close stops reconnecting and closes the live session.
func (r *Reconnector) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.stop)
	sess := r.sess
	r.mu.Unlock()
	var err error
	if sess != nil {
		err = sess.Close()
	}
	r.wg.Wait()
	return err
}
