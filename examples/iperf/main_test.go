package main

// Example runs the program and pins its stdout: the output the README
// shows for this example.
func Example() {
	main()
	// Output:
	// iperf: 1 server + 4 clients, aggregate goodput
	//   10GbE cluster:          9.44 Gbps  (1.00x)
	//   MCN server at mcn0:    20.66 Gbps  (2.19x)
	//   MCN server at mcn5:    83.93 Gbps  (8.89x)
}
