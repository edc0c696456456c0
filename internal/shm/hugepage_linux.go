package shm

import "syscall"

// hugePage is the transparent huge page of x86-64 (and of arm64 on 4 KiB
// pages): 2 MiB, the same rule as gpusim's device memory.
const hugePage = 2 << 20

// adviseHuge advises a fresh mapping of one huge page or more
// MADV_HUGEPAGE before anything touches it. Where the file system backs the
// file with huge folios (ext4 with large folios, tmpfs with shmem_enabled
// other than never), the first touch of each 2 MiB then faults once and maps
// it with one PMD in every process that advised its own mapping (DESIGN §9).
// Advice only: where it is refused, small pages serve.
func adviseHuge(b []byte) {
	if len(b) >= hugePage {
		_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
	}
}
