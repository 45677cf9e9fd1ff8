package main

// Example runs the program and pins its stdout: the output the README
// shows for this example.
func Example() {
	main()
	// Output:
	// $ mpirun -np 2 --host power8,nios2 ./hello
	// Hello world from processor power8, rank 0 out of 2 processors
	// Hello world from processor nios2, rank 1 out of 2 processors
	//
	// nios2$ tcpdump -i mcn0
	//    9.60902us tx ARP, Request who-has 192.168.1.1 tell 192.168.1.2
	//    27.2268us rx ARP, Reply 192.168.1.1 is-at 02:4d:43:01:00:00
	//    31.1967us tx IP 192.168.1.2.33001 > 192.168.1.1.7000: Flags [S], seq 1, ack 0, win 1048576, length 0
	//    47.7496us rx IP 192.168.1.1.7000 > 192.168.1.2.33001: Flags [S.], seq 1, ack 2, win 1048576, length 0
	//    69.6443us tx IP 192.168.1.2.33001 > 192.168.1.1.7000: Flags [.], seq 2, ack 2, win 1048576, length 0
	//    95.9891us tx IP 192.168.1.2.33001 > 192.168.1.1.7000: Flags [P.], seq 2, ack 2, win 1048576, length 4
	//    110.031us tx IP 192.168.1.2.33001 > 192.168.1.1.7000: Flags [P.], seq 6, ack 2, win 1048576, length 9
	//    122.765us rx IP 192.168.1.1.7000 > 192.168.1.2.33001: Flags [.], seq 2, ack 15, win 1048448, length 0
	//    143.029us rx IP 192.168.1.1.7000 > 192.168.1.2.33001: Flags [P.], seq 2, ack 15, win 1048576, length 8
	//    160.093us rx IP 192.168.1.1.7000 > 192.168.1.2.33001: Flags [P.], seq 10, ack 15, win 1048576, length 1
	//    188.378us tx IP 192.168.1.2.33001 > 192.168.1.1.7000: Flags [.], seq 15, ack 11, win 1048576, length 0
	//    211.625us tx IP 192.168.1.2.33001 > 192.168.1.1.7000: Flags [P.], seq 15, ack 11, win 1048576, length 8
	// ... (5 more frames)
	//
	// interface summary:
	//   8 packets delivered to the MCN node (RX IRQs: 4)
	//   9 packets transmitted toward the host
	//   17.6 KB read + 1.1 KB written by the host over the memory channel
	//   MPI job wall time: 187.7us (a 266MHz soft core is not fast, and that is the point)
}
