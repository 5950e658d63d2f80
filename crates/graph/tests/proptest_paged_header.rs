//! `PagedGraph::open` over untrusted headers: whatever follows a valid
//! magic, opening returns a graph or an error — it never panics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use labelcount_graph::paged::{PagedGraph, PoolConfig, HEADER_BYTES, PAGED_MAGIC};
use proptest::prelude::*;

fn temp_file() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("labelcount_paged_header_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{}_{}.lcp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Opens a file holding `head` padded to `len` bytes.
fn open_bytes(head: &[u8], len: usize) -> bool {
    let mut bytes = head.to_vec();
    bytes.resize(len.max(head.len()), 0);
    let path = temp_file();
    std::fs::write(&path, &bytes).unwrap();
    let opened = PagedGraph::open(&path, PoolConfig::unbounded()).is_ok();
    let _ = std::fs::remove_file(&path);
    opened
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fully random bytes behind the magic.
    #[test]
    fn random_header_bytes_never_panic(rest in proptest::collection::vec(any::<u8>(), 96..97)) {
        let mut head = PAGED_MAGIC.to_vec();
        head.extend_from_slice(&rest);
        open_bytes(&head, HEADER_BYTES);
    }

    /// A plausible version, page size and file size, so the layout checks
    /// run on section fields that are each either small or anywhere in the
    /// u64 range.
    #[test]
    fn plausible_headers_with_wild_fields_never_panic(
        version in 1u32..3,
        page_shift in 7u32..13,
        total_pages in 1u64..9,
        small in proptest::collection::vec(0u64..16, 10..11),
        wild in proptest::collection::vec(any::<u64>(), 10..11),
        use_wild in any::<u16>(),
    ) {
        let mut head = vec![0u8; HEADER_BYTES];
        head[0..8].copy_from_slice(&PAGED_MAGIC);
        head[8..12].copy_from_slice(&version.to_le_bytes());
        let page_size = 1u32 << page_shift;
        head[12..16].copy_from_slice(&page_size.to_le_bytes());
        // Fields at bytes 16..88 and the checksum page at 96..104.
        let offsets = [16, 24, 32, 40, 48, 56, 64, 72, 80, 96];
        for (i, at) in offsets.into_iter().enumerate() {
            let v = if use_wild & (1 << i) != 0 { wild[i] } else { small[i] };
            head[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        head[88..96].copy_from_slice(&total_pages.to_le_bytes());
        open_bytes(&head, (total_pages * page_size as u64) as usize);
    }
}
