// Package procs is the procblock corpus: real blocking primitives
// inside des.Proc bodies versus the engine's virtual ones.
package procs

import (
	"sync"
	"time"

	"iophases/internal/des"
)

var results = make(chan int, 8)

func badProc(p *des.Proc) {
	results <- 1                 // want `channel send inside a des.Proc body`
	<-results                    // want `channel receive inside a des.Proc body`
	time.Sleep(time.Millisecond) // want `time.Sleep inside a des.Proc body`
	go func() {}()               // want `raw goroutine spawned inside a des.Proc body`
}

func badSync(p *des.Proc, mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()         // want `sync.Mutex.Lock inside a des.Proc body`
	wg.Wait()         // want `sync.WaitGroup.Wait inside a des.Proc body`
	defer mu.Unlock() // want `sync.Mutex.Unlock inside a des.Proc body`
}

func badSelect(p *des.Proc) {
	select { // want `select inside a des.Proc body`
	case <-results: // want `channel receive inside a des.Proc body`
	default:
	}
}

func badRange(p *des.Proc) {
	for range results { // want `range over a channel inside a des.Proc body`
	}
}

// badNested: a function literal inside a proc body runs in the proc's
// coroutine — its channel ops are just as illegal.
func badNested(p *des.Proc) {
	helper := func() {
		results <- 2 // want `channel send inside a des.Proc body`
	}
	helper()
}

// goodProc uses only the engine's virtual blocking operations.
func goodProc(p *des.Proc) {
	p.Sleep(3)
	p.Park("token", "")
}

// spawner shows the Spawn contract: the literal passed to Spawn is a
// proc body and gets checked.
func spawner(e *des.Engine) {
	e.Spawn("worker", func(p *des.Proc) {
		results <- 3 // want `channel send inside a des.Proc body`
	})
}

// notAProc takes no *des.Proc — channel use is the caller's business
// (sweep pools and CLIs legitimately use channels).
func notAProc() {
	results <- 4
	<-results
}

// allowed pins the suppression path.
func allowed(p *des.Proc) {
	//iovet:allow(procblock) corpus fixture: pinning the suppression path
	results <- 5
}
