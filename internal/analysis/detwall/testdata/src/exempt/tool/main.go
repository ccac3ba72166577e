// Command tool is a detwall negative corpus: commands are package main,
// which detwall never checks — they time and seed real work.
package main

import (
	"math/rand"
	"time"
)

func main() {
	start := time.Now()
	_ = rand.Intn(10)
	_ = time.Since(start)
}
