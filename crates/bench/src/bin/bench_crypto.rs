//! Records the crypto data-plane throughput trajectory.
//!
//! Measures MB/s for bulk AES-CTR (serial and parallel), AES-GCM
//! seal/open and the end-to-end `encrypt_for_device` path at 1 MiB and
//! 16 MiB, alongside *seed baselines* replicating the pre-optimisation
//! data path exactly: the retained byte-oriented reference block
//! cipher, the byte-at-a-time CTR keystream loop, and 4-bit-table
//! GHASH (copied verbatim from the seed `gcm.rs`). The baselines'
//! output is validated against the current implementation before
//! anything is timed, so the speedups compare equal work. It also times
//! each host-side stage of one CL deploy's bitstream path (compile,
//! digest, manipulation, seal, ICAP load) in milliseconds, and prints
//! deterministic `bitstream_*` pin lines (sealed-stream and committed
//! frame digests) next to the `merkle_*` ones.
//!
//! Results go to stdout and `BENCH_crypto.json` so future PRs can
//! compare against this PR's numbers on the same machine.

use std::time::Instant;

use salus_bitstream::encrypt::encrypt_for_device_with;
use salus_bitstream::manipulate::rewrite_cells;
use salus_core::dev::{develop_cl, loopback_accelerator, package_digest};
use salus_core::keys::KeySession;
use salus_core::reg_channel::{HostRegChannel, LogicRegChannel, RegisterOp};
use salus_crypto::aes::Aes256;
use salus_crypto::ctr::AesCtr256;
use salus_crypto::gcm::AesGcm256;
use salus_crypto::merkle::MerkleTree;
use salus_crypto::sha256::{to_hex, Sha256};
use salus_crypto::siphash::SipHash24;
use salus_fpga::device::Device;
use salus_fpga::geometry::DeviceGeometry;

const MIB: usize = 1 << 20;
const BLOCK: usize = 16;

/// Merkle chunk size used by the DRAM integrity path.
const MERKLE_CHUNK: usize = 256;

/// The seed CTR data path: one reference block encryption per counter
/// block, then a per-byte keystream loop with a refill branch —
/// exactly the seed `apply_keystream`. Lives here (not in
/// `salus-crypto`) so the library carries only the block-level
/// reference.
struct SeedCtr {
    cipher: Aes256,
    counter: [u8; BLOCK],
    keystream: [u8; BLOCK],
    used: usize,
}

impl SeedCtr {
    fn new(cipher: Aes256, iv: &[u8; BLOCK]) -> SeedCtr {
        SeedCtr {
            cipher,
            counter: *iv,
            keystream: [0; BLOCK],
            used: BLOCK,
        }
    }

    fn apply_keystream(&mut self, data: &mut [u8]) {
        for byte in data.iter_mut() {
            if self.used == BLOCK {
                self.refill();
            }
            *byte ^= self.keystream[self.used];
            self.used += 1;
        }
    }

    fn refill(&mut self) {
        self.keystream = self.counter;
        self.cipher.encrypt_block_reference(&mut self.keystream);
        for i in (0..BLOCK).rev() {
            self.counter[i] = self.counter[i].wrapping_add(1);
            if self.counter[i] != 0 {
                break;
            }
        }
        self.used = 0;
    }
}

/// The seed GHASH (Shoup 4-bit tables, one nibble per step), copied
/// verbatim from the seed `gcm.rs` so the GCM baseline is faithful.
struct SeedGhash {
    m: [u128; 16],
    acc: u128,
}

const R4: [u128; 16] = {
    const R: u128 = 0xe1000000_00000000_00000000_00000000;
    let mut table = [0u128; 16];
    let mut i = 0usize;
    while i < 16 {
        let mut v = i as u128;
        let mut step = 0;
        while step < 4 {
            let lsb = v & 1;
            v >>= 1;
            if lsb != 0 {
                v ^= R;
            }
            step += 1;
        }
        table[i] = v;
        i += 1;
    }
    table
};

impl SeedGhash {
    fn new(h: u128) -> SeedGhash {
        let mut m = [0u128; 16];
        m[8] = h;
        let mut i = 4;
        while i >= 1 {
            m[i] = Self::mulx(m[i * 2]);
            i /= 2;
        }
        for i in [3usize, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15] {
            let high_bit = 1 << (usize::BITS - 1 - i.leading_zeros());
            m[i] = m[high_bit] ^ m[i ^ high_bit];
        }
        SeedGhash { m, acc: 0 }
    }

    fn mulx(v: u128) -> u128 {
        const R: u128 = 0xe1000000_00000000_00000000_00000000;
        let lsb = v & 1;
        (v >> 1) ^ if lsb != 0 { R } else { 0 }
    }

    fn mul_h(&self, x: u128) -> u128 {
        let mut z = 0u128;
        for i in 0..32 {
            let nibble = ((x >> (4 * i)) & 0xF) as usize;
            if i > 0 {
                let low = (z & 0xF) as usize;
                z = (z >> 4) ^ R4[low];
            }
            z ^= self.m[nibble];
        }
        z
    }

    fn update_block(&mut self, block: &[u8; BLOCK]) {
        self.acc = self.mul_h(self.acc ^ u128::from_be_bytes(*block));
    }

    fn update_padded(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(BLOCK);
        for chunk in &mut chunks {
            let mut b = [0u8; BLOCK];
            b.copy_from_slice(chunk);
            self.update_block(&b);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut b = [0u8; BLOCK];
            b[..rem.len()].copy_from_slice(rem);
            self.update_block(&b);
        }
    }

    fn finalize(mut self, aad_len: usize, ct_len: usize) -> [u8; BLOCK] {
        let mut lengths = [0u8; BLOCK];
        lengths[..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
        lengths[8..].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
        self.update_block(&lengths);
        self.acc.to_be_bytes()
    }
}

/// The seed GCM seal: per-block reference AES with byte-wise keystream
/// XOR for GCTR, 4-bit GHASH for the tag, tables rebuilt per call —
/// exactly what the seed `seal` did for a 96-bit nonce.
fn seed_gcm_seal(cipher: &Aes256, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut h_block = [0u8; BLOCK];
    cipher.encrypt_block_reference(&mut h_block);
    let h = u128::from_be_bytes(h_block);

    let mut j0 = [0u8; BLOCK];
    j0[..12].copy_from_slice(nonce);
    j0[15] = 1;

    let mut out = plaintext.to_vec();
    let mut counter = j0;
    for chunk in out.chunks_mut(BLOCK) {
        let c = u32::from_be_bytes([counter[12], counter[13], counter[14], counter[15]])
            .wrapping_add(1);
        counter[12..].copy_from_slice(&c.to_be_bytes());
        let mut ks = counter;
        cipher.encrypt_block_reference(&mut ks);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }

    let mut g = SeedGhash::new(h);
    g.update_padded(aad);
    g.update_padded(&out);
    let mut tag = g.finalize(aad.len(), out.len());
    let mut e_j0 = j0;
    cipher.encrypt_block_reference(&mut e_j0);
    for (t, e) in tag.iter_mut().zip(e_j0.iter()) {
        *t ^= e;
    }
    out.extend_from_slice(&tag);
    out
}

/// Times `f` over `iters` runs and returns MB/s for `bytes` per run.
fn throughput_mbps(bytes: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed().as_secs_f64() / f64::from(iters);
    bytes as f64 / per_iter / (1024.0 * 1024.0)
}

/// Times `f` over `iters` runs and returns seconds per run.
fn secs_per_op(iters: u32, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

/// Runs `f` `runs` times after a warm-up and returns the fastest run in
/// seconds — the least-disturbed sample on a shared host.
fn best_secs(runs: u32, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let key = [7u8; 32];
    let iv = [1u8; 16];
    let cipher = Aes256::new(&key);
    let gcm = AesGcm256::new(&key);

    // The baselines must compute the same function before their time
    // is worth comparing.
    {
        let mut sample = (0..8192u32).map(|i| i as u8).collect::<Vec<u8>>();
        let mut expect = sample.clone();
        AesCtr256::from_cipher(cipher.clone(), &iv).apply_keystream(&mut expect);
        SeedCtr::new(cipher.clone(), &iv).apply_keystream(&mut sample);
        assert_eq!(sample, expect, "seed CTR baseline diverged");

        let plain = (0..8192u32).map(|i| (i * 7) as u8).collect::<Vec<u8>>();
        assert_eq!(
            seed_gcm_seal(&cipher, &[9; 12], b"aad", &plain),
            gcm.seal(&[9; 12], b"aad", &plain),
            "seed GCM baseline diverged"
        );

        // And once past the parallel threshold, so the striped GCTR +
        // striped GHASH paths are cross-checked against the seed
        // implementation, not just against themselves.
        let big = (0..3 * salus_crypto::parallel::MIN_BYTES_PER_THREAD + 13)
            .map(|i| (i * 11 % 256) as u8)
            .collect::<Vec<u8>>();
        assert_eq!(
            seed_gcm_seal(&cipher, &[9; 12], b"aad", &big),
            gcm.seal(&[9; 12], b"aad", &big),
            "parallel GCM diverged from the seed baseline"
        );
    }

    let mut rows = Vec::new();
    println!("Crypto data-plane throughput (MiB/s)\n");

    for &size in &[MIB, 16 * MIB] {
        let label = if size == MIB { "1MiB" } else { "16MiB" };
        let iters = if size == MIB { 8 } else { 3 };
        let data = vec![0xA5u8; size];

        let seed_ctr = throughput_mbps(size, iters, || {
            let mut buf = data.clone();
            SeedCtr::new(cipher.clone(), &iv).apply_keystream(&mut buf);
            std::hint::black_box(&buf);
        });
        let seed_gcm = throughput_mbps(size, iters.min(4), || {
            std::hint::black_box(seed_gcm_seal(&cipher, &[1; 12], b"aad", &data));
        });
        let ctr_serial = throughput_mbps(size, iters, || {
            let mut buf = data.clone();
            AesCtr256::from_cipher(cipher.clone(), &iv).apply_keystream(&mut buf);
            std::hint::black_box(&buf);
        });
        let ctr_parallel = throughput_mbps(size, iters, || {
            let mut buf = data.clone();
            AesCtr256::from_cipher(cipher.clone(), &iv).apply_keystream_parallel(&mut buf);
            std::hint::black_box(&buf);
        });
        let gcm_seal = throughput_mbps(size, iters, || {
            std::hint::black_box(gcm.seal(&[1; 12], b"aad", &data));
        });
        let sealed = gcm.seal(&[1; 12], b"aad", &data);
        let gcm_open = throughput_mbps(size, iters, || {
            std::hint::black_box(gcm.open(&[1; 12], b"aad", &sealed).unwrap());
        });
        let for_device = throughput_mbps(size, iters, || {
            std::hint::black_box(salus_bitstream::encrypt::encrypt_for_device(
                &data, &key, &[9; 12], 77,
            ));
        });

        for (name, mbps, baseline) in [
            ("seed_ctr_reference", seed_ctr, seed_ctr),
            ("seed_gcm_seal_reference", seed_gcm, seed_gcm),
            ("aes256_ctr_serial", ctr_serial, seed_ctr),
            ("aes256_ctr_parallel", ctr_parallel, seed_ctr),
            ("aes256_gcm_seal", gcm_seal, seed_gcm),
            ("aes256_gcm_open", gcm_open, seed_gcm),
            ("encrypt_for_device", for_device, seed_gcm),
        ] {
            let speedup = mbps / baseline;
            println!("{label:>6}  {name:<26} {mbps:>9.1} MiB/s  ({speedup:.1}x vs seed)");
            rows.push(serde_json::json!({
                "size": label.to_owned(),
                "bench": name.to_owned(),
                "mbps": mbps,
                "speedup_vs_seed": speedup,
            }));
        }
        println!();
    }

    // --- Integrity hash path (SHA-256 / SipHash / Merkle) ---
    //
    // The serving plane's per-request integrity cost is dominated by
    // Merkle hashing over the DRAM window; these sections record the
    // primitives and the full-rebuild vs incremental-refresh gap the
    // `IntegritySession` exploits.
    println!("Integrity hash path (1 MiB window, {MERKLE_CHUNK}-byte chunks)\n");
    let window: Vec<u8> = (0..MIB).map(|i| (i % 251) as u8).collect();
    let merkle_key = [0x42u8; 32];
    let sip_key = [0x17u8; 16];

    let sha_mbps = throughput_mbps(MIB, 16, || {
        std::hint::black_box(Sha256::digest(&window));
    });
    let sip_mbps = throughput_mbps(MIB, 32, || {
        std::hint::black_box(SipHash24::mac(&sip_key, &window));
    });
    let build_serial = secs_per_op(8, || {
        std::hint::black_box(MerkleTree::build(&merkle_key, &window, MERKLE_CHUNK).root());
    });
    let build_parallel = secs_per_op(8, || {
        std::hint::black_box(MerkleTree::build_parallel(&merkle_key, &window, MERKLE_CHUNK).root());
    });
    let mut tree = MerkleTree::build(&merkle_key, &window, MERKLE_CHUNK);
    let chunk = &window[512 * MERKLE_CHUNK..513 * MERKLE_CHUNK];
    let update_1chunk = secs_per_op(64, || {
        std::hint::black_box(tree.update_chunks(&[(512, chunk)]));
    });
    let incremental_speedup = build_serial / update_1chunk;

    for (name, mbps) in [
        ("sha256_digest", sha_mbps),
        ("siphash24_mac", sip_mbps),
        (
            "merkle_build_serial",
            MIB as f64 / build_serial / (1024.0 * 1024.0),
        ),
        (
            "merkle_build_parallel",
            MIB as f64 / build_parallel / (1024.0 * 1024.0),
        ),
    ] {
        println!("  1MiB  {name:<26} {mbps:>9.1} MiB/s");
        rows.push(serde_json::json!({
            "size": "1MiB",
            "bench": name.to_owned(),
            "mbps": mbps,
            "unit": "MiB/s",
        }));
    }
    println!(
        "  1MiB  merkle_update_1chunk       {:>9.1} µs/op  ({incremental_speedup:.0}x vs full rebuild)",
        update_1chunk * 1e6
    );
    rows.push(serde_json::json!({
        "size": "1MiB",
        "bench": "merkle_update_1chunk",
        "micros_per_op": update_1chunk * 1e6,
        "speedup_vs_full_rebuild": incremental_speedup,
        "unit": "µs",
    }));
    // Per-request sizes: a served request roots ~4 KiB buffers, and
    // every register access is one sealed round trip (seal → open →
    // seal_response → open_response).
    let small = &window[..4096];
    let root_4kib = secs_per_op(2048, || {
        std::hint::black_box(MerkleTree::build(&merkle_key, small, MERKLE_CHUNK).root());
    });
    let session_key = KeySession::from_bytes([0x5Au8; 32]);
    let mut host = HostRegChannel::new(session_key, 0);
    let mut logic = LogicRegChannel::new(session_key, 0);
    let reg_roundtrip = secs_per_op(4096, || {
        let sealed = host.seal_op(RegisterOp::Write { addr: 4, value: 99 });
        logic.open_op(&sealed).expect("honest channel");
        let rsp = logic.seal_response(0);
        std::hint::black_box(host.open_response(&rsp).expect("honest channel"));
    });
    for (size, name, secs) in [
        ("4KiB", "merkle_root_4kib", root_4kib),
        ("13B", "reg_channel_roundtrip", reg_roundtrip),
    ] {
        println!("  {size:>4}  {name:<26} {:>9.2} µs/op", secs * 1e6);
        rows.push(serde_json::json!({
            "size": size,
            "bench": name,
            "micros_per_op": secs * 1e6,
            "unit": "µs",
        }));
    }
    // --- Bitstream path (compile → digest → manipulate → seal → ICAP) ---
    //
    // One deploy's host-side layers on the loopback CL for partition 1
    // of a two-RP U200 (a 2.44 MB stream), best of several runs each.
    let geometry = DeviceGeometry::u200_multi_rp(2);
    let rp = geometry.partitions[1];
    let package = develop_cl(loopback_accelerator(), rp, 1).expect("loopback CL fits");
    let wire = &package.compiled.wire;
    let cells = &package.locations;
    let secret = [0x5Au8; 64];
    let updates: Vec<_> = [&cells.key_attest, &cells.key_session, &cells.ctr_session]
        .into_iter()
        .map(|loc| (loc, &secret[..loc.capacity.min(secret.len())]))
        .collect();
    let manipulated = rewrite_cells(wire, &updates).expect("canonical stream");
    let device_cipher = AesGcm256::new(&[7; 32]);
    let mut device = Device::manufacture(geometry, 3);
    device.program_device_key([7; 32]).expect("fresh eFUSE");
    let sealed =
        encrypt_for_device_with(&manipulated, &device_cipher, &[2; 12], device.dna().read());
    let stages = [
        (
            "bitstream_develop_cl",
            best_secs(5, || {
                std::hint::black_box(develop_cl(loopback_accelerator(), rp, 1).expect("fits"));
            }),
        ),
        (
            "bitstream_digest",
            best_secs(9, || {
                std::hint::black_box(package_digest(wire, cells, 1, rp.family));
            }),
        ),
        (
            "bitstream_rewrite",
            best_secs(9, || {
                std::hint::black_box(rewrite_cells(wire, &updates).expect("canonical"));
            }),
        ),
        (
            "bitstream_seal",
            best_secs(9, || {
                std::hint::black_box(encrypt_for_device_with(
                    &manipulated,
                    &device_cipher,
                    &[2; 12],
                    0xABCDEF,
                ));
            }),
        ),
        (
            "bitstream_icap_load",
            best_secs(9, || {
                std::hint::black_box(device.icap_load(&sealed).expect("keyed device"));
            }),
        ),
    ];
    let stream_mb = wire.len() as f64 / 1e6;
    println!("\nBitstream path ({stream_mb:.2} MB CL stream, best run)\n");
    for (name, secs) in stages {
        println!("  {stream_mb:.2}MB  {name:<26} {:>9.2} ms", secs * 1e3);
        rows.push(serde_json::json!({
            "size": format!("{stream_mb:.2}MB"),
            "bench": name,
            "millis_per_op": secs * 1e3,
            "unit": "ms",
        }));
    }
    let sealed_digest = to_hex(&Sha256::digest(&encrypt_for_device_with(
        &manipulated,
        &device_cipher,
        &[2; 12],
        0xABCDEF,
    )));
    let frames_digest = to_hex(&Sha256::digest(
        &device.partition(1).expect("partition 1").flatten(),
    ));

    // The acceptance bar for the integrity session: a 1-chunk refresh
    // must beat a full rebuild by an order of magnitude at 1 MiB.
    assert!(
        incremental_speedup >= 10.0,
        "incremental refresh only {incremental_speedup:.1}x faster than full rebuild"
    );

    // Deterministic cross-process pins for CI: same key + data must
    // yield the same roots in every process, and the three build paths
    // must agree. (No timing on these lines — CI diffs them verbatim.)
    let serial_root = MerkleTree::build(&merkle_key, &window, MERKLE_CHUNK).root();
    let parallel_root = MerkleTree::build_parallel(&merkle_key, &window, MERKLE_CHUNK).root();
    let refreshed_root = tree.update_chunks(&[(512, chunk)]);
    println!("\nmerkle_root_1mib = {}", to_hex(&serial_root));
    println!(
        "merkle_parallel_matches_serial = {}",
        parallel_root == serial_root
    );
    println!(
        "merkle_incremental_matches_rebuild = {}",
        refreshed_root == serial_root
    );
    println!("bitstream_sealed_sha256 = {sealed_digest}");
    println!("bitstream_frames_sha256 = {frames_digest}");
    println!();

    // Hardware context: the parallel-path numbers scale with core
    // count, so a 1-core container records serial-only speedups.
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    salus_bench::write_bench_json(
        "crypto",
        serde_json::json!({
            "experiment": "bench_crypto",
            "available_parallelism": threads as u64,
            "merkle_root_1mib": to_hex(&serial_root),
            "bitstream_sealed_sha256": sealed_digest,
            "bitstream_frames_sha256": frames_digest,
            "data": rows,
        }),
    );
}
