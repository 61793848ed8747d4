// Package fixblockgood is a poplint fixture: every blocking site here has a
// shutdown edge — a ctx.Done() arm, a default arm, a close-based witness —
// or does not repeat at all. blockingcancel must stay silent.
package fixblockgood

import "context"

// serve repeats a receive, but the sibling ctx.Done() arm unblocks it on
// cancellation.
func serve(ctx context.Context, ch chan int) int {
	total := 0
	for {
		select {
		case v := <-ch:
			total += v
		case <-ctx.Done():
			return total
		}
	}
}

// offer repeats a send, but the default arm means it never blocks.
func offer(ch chan string) {
	for i := 0; i < 8; i++ {
		select {
		case ch <- "x":
		default:
		}
	}
}

// guardedSend repeats a send with a ctx.Done() escape.
func guardedSend(ctx context.Context, ch chan float64) {
	for i := 0; i < 4; i++ {
		select {
		case ch <- float64(i):
		case <-ctx.Done():
			return
		}
	}
}

// conn owns a channel the program provably closes: receives from it wake up
// at shutdown.
type conn struct {
	updates chan uint64
}

// shutdown is the close witness for conn.updates.
func (c *conn) shutdown() {
	close(c.updates)
}

// consume repeats a receive, but the close in shutdown is its witness — the
// field identity matches across functions.
func (c *conn) consume() uint64 {
	var last uint64
	for i := 0; i < 3; i++ {
		last = <-c.updates
	}
	return last
}

// drainAll ranges over the closed channel: the range exits when shutdown
// closes it.
func (c *conn) drainAll() int {
	n := 0
	for range c.updates {
		n++
	}
	return n
}

// handoff receives under a different variable than the closer holds: the
// element-type fallback still finds the witness.
type resp struct {
	id int
}

func closeRespChan(ch chan resp) {
	close(ch)
}

func awaitResps(pending map[int]chan resp) {
	for _, ch := range pending {
		<-ch
	}
}

// oneShot sends exactly once, outside any loop, and no loop reaches it: the
// site never repeats, so it is not audited.
func oneShot(ch chan int) {
	ch <- 1
}

// pollAfterReady receives in the loop's init, which runs once: the site does
// not repeat, so it is not audited.
func pollAfterReady(ready chan bool, limit int) int {
	polls := 0
	for ok := <-ready; ok && polls < limit; polls++ {
	}
	return polls
}
