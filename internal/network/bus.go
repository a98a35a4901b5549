package network

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Bus is an asynchronous goroutine-per-peer transport. Each registered peer
// gets a dedicated dispatch goroutine consuming its unbounded inbox in
// order. Sends never block.
type Bus struct {
	mu     sync.Mutex
	peers  map[graph.PeerID]*busPeer
	closed bool
	wg     sync.WaitGroup

	statsMu sync.Mutex
	stats   Stats
}

type busPeer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Envelope
	low     []Envelope // low-priority inbox, served only when queue is empty
	closed  bool
	handler Handler
}

// NewBus creates a reliable asynchronous transport.
func NewBus() *Bus {
	return &Bus{peers: make(map[graph.PeerID]*busPeer)}
}

// Register installs the handler for a peer and starts its dispatch
// goroutine. It returns an error after Close or on duplicate registration.
func (b *Bus) Register(p graph.PeerID, h Handler) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("network: bus closed")
	}
	if _, dup := b.peers[p]; dup {
		return fmt.Errorf("network: peer %q already registered", p)
	}
	bp := &busPeer{handler: h}
	bp.cond = sync.NewCond(&bp.mu)
	b.peers[p] = bp
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			bp.mu.Lock()
			for len(bp.queue) == 0 && len(bp.low) == 0 && !bp.closed {
				bp.cond.Wait()
			}
			if len(bp.queue) == 0 && len(bp.low) == 0 && bp.closed {
				bp.mu.Unlock()
				return
			}
			var e Envelope
			if len(bp.queue) > 0 {
				e = bp.queue[0]
				bp.queue = bp.queue[1:]
			} else {
				e = bp.low[0]
				bp.low = bp.low[1:]
			}
			bp.mu.Unlock()
			bp.handler(e)
			b.statsMu.Lock()
			b.stats.Delivered++
			b.statsMu.Unlock()
		}
	}()
	return nil
}

// Unregister removes a peer (a peer leaving a live network): its dispatch
// goroutine drains the remaining inbox and exits, and later sends to the
// peer are dropped. Unregistering an unknown peer is a no-op. Safe to call
// concurrently with Send and Register.
func (b *Bus) Unregister(p graph.PeerID) {
	b.mu.Lock()
	bp, ok := b.peers[p]
	if ok {
		delete(b.peers, p)
	}
	b.mu.Unlock()
	if !ok {
		return
	}
	bp.mu.Lock()
	bp.closed = true
	bp.cond.Broadcast()
	bp.mu.Unlock()
}

// Send delivers asynchronously without blocking. Messages to unknown peers
// or sent after Close are dropped (and counted as such).
func (b *Bus) Send(e Envelope) { b.send(e, false) }

// SendLow is Send at low priority: the envelope is delivered only when the
// destination's regular inbox is empty. Drivers use it for periodic ticks so
// a peer always folds in the remote messages that already arrived before
// producing again — modelling a node that serves its network inbox ahead of
// its local timer, with no cross-peer synchronization whatsoever.
func (b *Bus) SendLow(e Envelope) { b.send(e, true) }

func (b *Bus) send(e Envelope, low bool) {
	b.statsMu.Lock()
	b.stats.Sent++
	b.statsMu.Unlock()
	b.mu.Lock()
	bp, ok := b.peers[e.To]
	closed := b.closed
	b.mu.Unlock()
	if !ok || closed {
		b.countDrop()
		return
	}
	bp.mu.Lock()
	if bp.closed {
		bp.mu.Unlock()
		b.countDrop()
		return
	}
	if low {
		bp.low = append(bp.low, e)
	} else {
		bp.queue = append(bp.queue, e)
	}
	bp.cond.Signal()
	bp.mu.Unlock()
}

func (b *Bus) countDrop() {
	b.statsMu.Lock()
	b.stats.Dropped++
	b.statsMu.Unlock()
}

// Close stops accepting sends, lets inboxes drain, and waits for the
// dispatch goroutines to exit. Safe to call more than once.
func (b *Bus) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	peers := b.peers
	b.mu.Unlock()
	for _, bp := range peers {
		bp.mu.Lock()
		bp.closed = true
		bp.cond.Broadcast()
		bp.mu.Unlock()
	}
	b.wg.Wait()
	return nil
}

// Stats returns a copy of the transport counters.
func (b *Bus) Stats() Stats {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	return b.stats
}

// Quiescent reports whether the bus has reached a stable idle state: every
// accepted envelope has been fully handled and every inbox is empty. A
// handler that is still executing keeps the bus non-quiescent (its envelope
// is counted as sent but not yet delivered), so a true result means no
// handler is running and none is pending — any further activity can only be
// triggered by a new external Send.
func (b *Bus) Quiescent() bool {
	b.statsMu.Lock()
	st := b.stats
	b.statsMu.Unlock()
	if st.Sent != st.Delivered+st.Dropped {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, bp := range b.peers {
		bp.mu.Lock()
		n := len(bp.queue) + len(bp.low)
		bp.mu.Unlock()
		if n > 0 {
			return false
		}
	}
	return true
}
