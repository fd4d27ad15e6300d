package cpufeat

// probe reads CPUID.1:ECX.OSXSAVE and .AVX, then XCR0 bits 1 and 2 (the OS
// saves XMM and YMM state), and for AVX2 CPUID.7:EBX bit 5, if the CPU has
// leaf 7.
func probe() (avx, avx2 bool) {
	const osxsave, avxBit, avx2Bit = 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avxBit == 0 || xgetbv0()&6 != 6 {
		return false, false
	}
	if maxLeaf < 7 {
		return true, false
	}
	_, b, _, _ := cpuid(7, 0)
	return true, b&avx2Bit != 0
}

func cpuid(eax, ecx uint32) (a, b, c, d uint32)
func xgetbv0() uint32
