//! Fuzz: the ELF32 loader parses untrusted bytes. Over mutated header
//! fields, truncation at every length, overlapping and out-of-range
//! segments and huge sizes and counts, `parse_elf32` and
//! `System::load_elf` must return `Ok` or an `ElfError` — never panic —
//! and stay bounded: parsing copies at most the file's length, and an
//! accepted image lies inside DRAM with at most `DRAM_SIZE` bytes of
//! segments.

use neuropulsim_sim::loader::{parse_elf32, workloads, write_elf32, ElfError, PT_LOAD};
use neuropulsim_sim::system::{System, DRAM_BASE, DRAM_SIZE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Offsets of the ELF header fields the mutations target.
const E_PHOFF: usize = 28;
const E_PHENTSIZE: usize = 42;
const E_PHNUM: usize = 44;
/// Bytes of one program header.
const PH_SIZE: usize = 32;

/// Reads a little-endian `u32` out of `bytes` at `off`.
fn get_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

fn put_u32(bytes: &mut [u8], off: usize, v: u32) {
    if let Some(dst) = bytes.get_mut(off..off + 4) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

fn put_u16(bytes: &mut [u8], off: usize, v: u16) {
    if let Some(dst) = bytes.get_mut(off..off + 2) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// A value from the edges a size or offset field can take.
fn edge_u32(rng: &mut StdRng, len: usize) -> u32 {
    let dram = DRAM_SIZE as u32;
    match rng.gen_range(0..9) {
        0 => 0,
        1 => 1,
        2 => u32::MAX,
        3 => len as u32,
        4 => dram,
        5 => dram + 1,
        6 => 0x8000_0000,
        7 => rng.gen_range(0..len as u32 + 64),
        _ => rng.gen::<u32>(),
    }
}

/// One program header: `[p_type, p_offset, p_vaddr, p_paddr, p_filesz,
/// p_memsz, p_flags, p_align]`.
fn header(offset: u32, vaddr: u32, filesz: u32, memsz: u32) -> [u32; 8] {
    [PT_LOAD, offset, vaddr, vaddr, filesz, memsz, 5, 4]
}

/// An ELF header followed by `headers` and then `tail` bytes of data.
fn image(headers: &[[u32; 8]], tail: &[u8]) -> Vec<u8> {
    let mut out = write_elf32(0, &[]);
    put_u16(&mut out, E_PHNUM, headers.len() as u16);
    for h in headers {
        out.extend(h.iter().flat_map(|w| w.to_le_bytes()));
    }
    out.extend_from_slice(tail);
    out
}

fn read_byte(sys: &System, addr: u32) -> u8 {
    let word = sys
        .platform
        .dram
        .peek(addr & !3)
        .expect("address inside DRAM");
    (word >> ((addr & 3) * 8)) as u8
}

/// Parses and loads `bytes`, asserting the loader's bounds on success.
fn check(bytes: &[u8]) {
    if let Ok(image) = parse_elf32(bytes) {
        let copied: usize = image.segments.iter().map(|s| s.data.len()).sum();
        assert!(copied <= bytes.len(), "copied {copied} of {}", bytes.len());
    }
    let mut sys = System::new();
    let Ok(image) = sys.load_elf(bytes) else {
        return;
    };
    let dram_end = u64::from(DRAM_BASE) + DRAM_SIZE as u64;
    let mut total = 0u64;
    for s in &image.segments {
        assert!(u64::from(s.vaddr) + u64::from(s.memsz) <= dram_end);
        assert!(s.data.len() <= s.memsz as usize);
        total += u64::from(s.memsz);
    }
    assert!(total <= DRAM_SIZE as u64, "{total} segment bytes loaded");
    // The last segment is written last, so its bytes are in DRAM.
    if let Some(s) = image.segments.last().filter(|s| !s.data.is_empty()) {
        let end = s.data.len() - 1;
        assert_eq!(read_byte(&sys, s.vaddr), s.data[0]);
        assert_eq!(read_byte(&sys, s.vaddr + end as u32), s.data[end]);
    }
}

proptest! {
    #[test]
    fn mutated_headers_return_ok_or_an_error(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let segments: Vec<(u32, Vec<u8>)> = (0..rng.gen_range(1usize..4))
            .map(|_| {
                let len = rng.gen_range(0usize..64);
                (rng.gen_range(0..DRAM_SIZE as u32), (0..len).map(|_| rng.gen()).collect())
            })
            .collect();
        let refs: Vec<(u32, &[u8])> = segments.iter().map(|(v, d)| (*v, d.as_slice())).collect();
        let mut elf = write_elf32(0, &refs);
        let len = elf.len();
        for _ in 0..rng.gen_range(1..6) {
            let ph = get_u32(&elf, E_PHOFF) as usize + PH_SIZE * rng.gen_range(0..refs.len());
            match rng.gen_range(0..10) {
                0 => put_u32(&mut elf, E_PHOFF, edge_u32(&mut rng, len)),
                1 => put_u16(&mut elf, E_PHENTSIZE, edge_u32(&mut rng, len) as u16),
                2 => put_u16(&mut elf, E_PHNUM, edge_u32(&mut rng, len) as u16),
                3 => put_u32(&mut elf, ph, edge_u32(&mut rng, len)),
                4..=8 => {
                    let field = [4, 8, 16, 20, 20][rng.gen_range(0usize..5)];
                    put_u32(&mut elf, ph + field, edge_u32(&mut rng, len));
                }
                _ => {
                    let at = rng.gen_range(0..len);
                    elf[at] ^= 1u8 << rng.gen_range(0u32..8);
                }
            }
        }
        check(&elf);
    }

    #[test]
    fn overlapping_and_out_of_range_segments_stay_bounded(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tail: Vec<u8> = (0..rng.gen_range(0usize..2048)).map(|_| rng.gen()).collect();
        let count = rng.gen_range(1usize..48);
        let file_len = write_elf32(0, &[]).len() + count * PH_SIZE + tail.len();
        let headers: Vec<[u32; 8]> = (0..count)
            .map(|_| {
                let vaddr = match rng.gen_range(0..4) {
                    0 => 0,
                    1 => DRAM_SIZE as u32 - rng.gen_range(0u32..4096),
                    2 => u32::MAX - rng.gen_range(0u32..4096),
                    _ => rng.gen_range(0..DRAM_SIZE as u32),
                };
                let (offset, filesz) = if rng.gen_bool(0.5) {
                    (0, file_len as u32)
                } else {
                    (edge_u32(&mut rng, file_len), edge_u32(&mut rng, file_len))
                };
                header(offset, vaddr, filesz, edge_u32(&mut rng, file_len))
            })
            .collect();
        check(&image(&headers, &tail));
    }
}

#[test]
fn truncation_at_every_length_is_an_error() {
    for elf in [workloads::sieve_elf(), workloads::crc_elf()] {
        check(&elf);
        for len in 0..elf.len() {
            assert!(
                parse_elf32(&elf[..len]).is_err(),
                "prefix of {len} bytes parsed"
            );
        }
    }
}

#[test]
fn overlapping_whole_file_segments_are_rejected() {
    // 2000 headers each claiming the whole 64 052-byte file: accepting
    // them would copy 128 MB out of a 64 KB image.
    let count = 2000;
    let len = write_elf32(0, &[]).len() + count * PH_SIZE;
    let headers = vec![header(0, 0, len as u32, len as u32); count];
    let elf = image(&headers, &[]);
    assert!(elf.len() <= 64 * 1024);
    // `matches!`, not `assert_eq!`: a failure must not print the image.
    assert!(matches!(parse_elf32(&elf), Err(ElfError::Truncated)));
    assert!(matches!(
        System::new().load_elf(&elf),
        Err(ElfError::Truncated)
    ));

    // Zero-file-size segments copy nothing, but 80 of 64 KiB each would
    // write 5 MiB into 4 MiB of DRAM.
    let headers = vec![header(0, 0, 0, 64 * 1024); 80];
    let elf = image(&headers, &[]);
    assert!(parse_elf32(&elf).is_ok());
    assert!(matches!(
        System::new().load_elf(&elf),
        Err(ElfError::SegmentOutOfRange { .. })
    ));
}
