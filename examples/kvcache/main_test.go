package main

// Example runs the program and pins its stdout: the output the README
// shows for this example.
func Example() {
	main()
	// Output:
	// 1KB GET latency: near-memory MCN DIMM vs a cache node across the rack
	// MCN DIMM (mcn5)           512 GETs   p50    9.85us   p99    9.85us
	// MCN DIMM (mcn0)           512 GETs   p50   10.00us   p99   10.00us
	// 10GbE cache node          512 GETs   p50   18.78us   p99   18.78us
}
