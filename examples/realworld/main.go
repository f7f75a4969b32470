// Realworld reproduces the paper's §4.6.2 experiments: the three
// applications with both WebAssembly and JavaScript implementations
// (Long.js, Hyphenopoly, FFmpeg), including the Long.js operation counts of
// Appendix D, counted on the same runs.
package main

import (
	"fmt"
	"log"

	"wasmbench/internal/core"
)

func main() {
	r, err := core.RunRealWorld()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r.RenderTable10())
	fmt.Println(r.OpCounts.RenderTable12())
}
