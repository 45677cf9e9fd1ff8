package main

// Example runs the program and pins its stdout: the output the README
// shows for this example.
func Example() {
	main()
	// Output:
	// MCN quickstart (host <-> MCN DIMM over the memory channel)
	//   ping    16B payload: 6.71309us round trip
	//   ping  1024B payload: 6.96092us round trip
	//   ping  8192B payload: 11.592us round trip
	//   TCP stream: 8 MB in 1.98309ms = 33.84 Gbps
	//   host channel traffic: 24.8 MB over the DIMM's memory channel
}
