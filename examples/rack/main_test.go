package main

// Example runs the program and pins its stdout: the output the README
// shows for this example.
func Example() {
	main()
	// Output:
	// MCN rack: 2 servers x 2 DIMMs behind one ToR switch
	// ping from host0/mcn0:
	//   -> same server, other DIMM   10.2563us
	//   -> other server's DIMM       31.7497us
	// rack-wide MPI gather:
	//   rank 1 reporting
	//   rank 2 reporting
	//   rank 3 reporting
	// cross-host frames: 45 egress (F4), 44 ingress (bridge)
}
