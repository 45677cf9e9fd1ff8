package main

// Example runs the program and pins its stdout: the output the README
// shows for this example.
func Example() {
	main()
	// Output:
	// payload                 16B       256B      1024B      4096B      8192B
	// 10GbE             14.1255us  12.7704us  15.5174us    23.74us  32.5107us
	// host-mcn mcn0     5.16638us   4.3775us  4.44985us  9.23482us  14.3364us
	// host-mcn mcn1     4.68011us   4.3775us  4.44985us  7.83162us  11.8251us
	// host-mcn mcn5     4.47791us  3.94271us  4.12271us  4.84271us  5.88521us
	// mcn-mcn mcn0      11.8357us  9.29437us  9.24855us  13.1818us  18.8724us
	// mcn-mcn mcn5      7.33522us  6.38542us  6.74542us  8.18542us  10.2704us
	//
	// The memory channel removes the PHY entirely; ALERT_N (mcn1) removes
	// the polling wait, and the optimized stack keeps even two-hop MCN-to-MCN
	// round trips below the single-hop 10GbE wire.
}
