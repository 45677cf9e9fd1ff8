package main

// Example runs the program and pins its stdout: the output the README
// shows for this example.
func Example() {
	main()
	// Output:
	// mapreduce wordcount over 3 MCN DIMMs finished in 64.9349us
	// top words:
	//   the        320
	//   memory     192
	//   channel    128
	//   dimm       128
	//   a          64
	// packets delivered up the host stack (F1): 26; DIMM RX IRQs: 60
}
