package main

// Example runs the program and pins its stdout: the output the README
// shows for this example.
func Example() {
	main()
	// Output:
	// running the Sec. VII comparison (TCP over MCN vs the channel-native transport)...
	//
	// Sec. VII discussion: TCP overhead on MCN and the channel-native transport
	//   TCP (mcn3) stream goodput:         21.54 Gbps
	//   mcnt stream goodput:               39.08 Gbps  (1.81x)
	//   pure-ACK share of TCP segments:     33.3%  (paper: ACK machinery costs ~25%)
	//   64B ping-pong RTT, TCP:         9.76173us
	//   64B ping-pong RTT, mcnt:        4.36884us  (-55%)
	//
	// fast-path RPC reply: "echo:lookup key=42"
}
