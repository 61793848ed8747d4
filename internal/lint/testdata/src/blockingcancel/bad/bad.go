// Package fixblock is a poplint fixture: blocking channel operations and
// Cond.Wait sites that a server loop repeats with no cancellation edge —
// each one can wedge a drain, and blockingcancel must catch them all.
package fixblock

import "sync"

// loopSend repeats a bare send: nothing unblocks it on shutdown.
func loopSend(ch chan int) {
	for i := 0; i < 10; i++ {
		ch <- i // want blockingcancel
	}
}

// loopRecv repeats a bare receive from a channel nothing in this program
// ever closes.
func loopRecv(ch chan uint32) uint32 {
	var total uint32
	for i := 0; i < 3; i++ {
		total += <-ch // want blockingcancel
	}
	return total
}

// selectNoCancel repeats a select whose every arm blocks: no default, no
// ctx.Done(), no closed-channel receive.
func selectNoCancel(a, b chan string) {
	for {
		select {
		case a <- "x": // want blockingcancel
		case b <- "y": // want blockingcancel
		}
	}
}

// queue wedges drains behind Cond.Wait: no cancellation can wake it.
type queue struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func (q *queue) waitNonEmpty() {
	q.mu.Lock()
	for q.n == 0 {
		q.cond.Wait() // want blockingcancel lockorder
	}
	q.n--
	q.mu.Unlock()
}

// pump repeats deliver through a call edge: the send is not syntactically
// in a loop, but the loop reaches it, so it repeats all the same.
func pump(ch chan float64) {
	for i := 0; i < 4; i++ {
		deliver(ch, float64(i))
	}
}

func deliver(ch chan float64, v float64) {
	ch <- v // want blockingcancel
}

// drain ranges over a channel nothing ever closes: the loop never exits.
func drain(ch chan byte) int {
	n := 0
	for range ch { // want blockingcancel
		n++
	}
	return n
}

// waitEach receives as the loop condition, which runs on every iteration:
// the receive repeats, and nothing ever closes the channel.
func waitEach(ready chan bool) int {
	n := 0
	for <-ready { // want blockingcancel
		n++
	}
	return n
}
