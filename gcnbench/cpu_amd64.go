package main

// cpuid executes the CPUID instruction for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// cpuFeatures lists the vector features the CPU reports: FMA (leaf 1
// ECX bit 12), AVX2 (leaf 7 EBX bit 5) and AVX-512F (leaf 7 EBX bit 16).
func cpuFeatures() []string {
	var out []string
	maxLeaf, _, _, _ := cpuid(0, 0)
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<12) != 0 {
		out = append(out, "fma")
	}
	if maxLeaf >= 7 {
		_, ebx, _, _ := cpuid(7, 0)
		if ebx&(1<<5) != 0 {
			out = append(out, "avx2")
		}
		if ebx&(1<<16) != 0 {
			out = append(out, "avx512f")
		}
	}
	return out
}
