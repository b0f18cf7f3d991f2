//! The harness's own instruments: if the key generator, the histogram,
//! or the reply framer is wrong, every number the benchmark prints is.

use std::io::Cursor;

use toposem_benchmark::client::{parse_head, read_reply};
use toposem_benchmark::gen::{permutation, Rng, Zipf};
use toposem_benchmark::hist::Histogram;
use toposem_benchmark::workload::{Digest, Expect};

#[test]
fn zipf_is_seed_stable_and_skewed() {
    let zipf = Zipf::new(20_000, 0.99);
    let draw = |seed: u64| -> Vec<usize> {
        let mut rng = Rng::fork(seed, 0);
        (0..8).map(|_| zipf.sample(&mut rng)).collect()
    };
    // Same seed, same keys — within a run and across builds: these
    // values pin the generator's algorithm, not just its determinism.
    assert_eq!(draw(7), draw(7));
    assert_eq!(draw(7), [0, 7413, 287, 73, 8, 86, 19, 1]);
    assert_ne!(draw(7), draw(8));

    let mut rng = Rng::new(42);
    let mut counts = vec![0u32; 20_000];
    for _ in 0..200_000 {
        counts[zipf.sample(&mut rng)] += 1;
    }
    // Zipf(0.99) over 20 000 keys gives rank 0 about 9.6 % of the draws
    // and the top 512 ranks (the plan cache's capacity) about 65 %.
    let top = counts[0] as f64 / 200_000.0;
    assert!((0.085..0.105).contains(&top), "rank 0 share {top}");
    let head: u32 = counts[..512].iter().sum();
    let head = head as f64 / 200_000.0;
    assert!((0.60..0.70).contains(&head), "top-512 share {head}");
    assert!(counts[0] > counts[10] && counts[10] > counts[1000]);
}

#[test]
fn permutation_is_a_seeded_bijection() {
    let p = permutation(1000, &mut Rng::fork(3, 9));
    assert_eq!(p, permutation(1000, &mut Rng::fork(3, 9)));
    assert_ne!(p, permutation(1000, &mut Rng::fork(4, 9)));
    let mut sorted = p.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
}

#[test]
fn histogram_percentiles_are_within_a_bucket_width() {
    let mut h = Histogram::default();
    assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
    // 1 µs … 10 ms in 1 µs steps, in nanoseconds.
    for us in 1..=10_000u64 {
        h.record(us * 1_000);
    }
    assert_eq!(h.count(), 10_000);
    for (q, want_us) in [
        (0.5, 5_000.0),
        (0.9, 9_000.0),
        (0.99, 9_900.0),
        (1.0, 10_000.0),
    ] {
        let got = h.quantile_us(q);
        assert!(
            (got - want_us).abs() / want_us < 0.01,
            "q{q}: {got} vs {want_us}"
        );
    }
    // Small values are exact.
    let mut small = Histogram::default();
    for v in [5, 5, 5, 90, 100] {
        small.record(v);
    }
    assert!((5.0..=6.0).contains(&small.quantile(0.5)));
    assert!((100.0..=101.0).contains(&small.quantile(1.0)));

    // Merging equals recording into one.
    let (mut a, mut b, mut both) = (
        Histogram::default(),
        Histogram::default(),
        Histogram::default(),
    );
    for v in 0..5_000u64 {
        let ns = v * v + 17;
        if v % 2 == 0 { &mut a } else { &mut b }.record(ns);
        both.record(ns);
    }
    a.merge(&b);
    assert_eq!(a.count(), both.count());
    for q in [0.1, 0.5, 0.99] {
        assert_eq!(a.quantile(q), both.quantile(q));
    }
    // A value beyond the last bucket is clamped, not lost or a panic.
    let mut huge = Histogram::default();
    huge.record(u64::MAX);
    assert_eq!(huge.count(), 1);
    assert!(huge.quantile(0.5) > 1e12);
}

#[test]
fn framer_counts_lines_and_keeps_escapes() {
    // A body line with an escaped newline is one line; the reply after
    // it starts exactly where the count says.
    let wire =
        "OK 2 employee\nname=\"a\\nb\" age=1\nname=\"c\" age=2\nOK 0 pong\nERR no such type\n";
    let mut r = Cursor::new(wire.as_bytes());
    let mut buf = String::new();

    let mut lines = Vec::new();
    let (head, bytes) = read_reply(&mut r, &mut buf, |l| lines.push(l.to_owned())).unwrap();
    assert!(head.ok);
    assert_eq!((head.lines, head.info.as_str()), (2, "employee"));
    assert_eq!(lines, ["name=\"a\\nb\" age=1", "name=\"c\" age=2"]);
    assert_eq!(
        bytes,
        "OK 2 employee\nname=\"a\\nb\" age=1\nname=\"c\" age=2\n".len()
    );

    let (head, _) = read_reply(&mut r, &mut buf, |_| panic!("no body")).unwrap();
    assert_eq!((head.ok, head.lines, head.info.as_str()), (true, 0, "pong"));

    let (head, _) = read_reply(&mut r, &mut buf, |_| panic!("no body")).unwrap();
    assert_eq!((head.ok, head.info.as_str()), (false, "no such type"));

    // End of stream, a short body, and a malformed head are errors.
    assert!(read_reply(&mut r, &mut buf, |_| {}).is_err());
    let mut short = Cursor::new(&b"OK 3 employee\nrow\n"[..]);
    assert!(read_reply(&mut short, &mut buf, |_| {}).is_err());
    assert!(parse_head("OK many rows").is_err());
    assert!(parse_head("HELLO").is_err());
    // The server writes `OK 0 ` (trailing space) for an empty info.
    assert_eq!(parse_head("OK 0 ").unwrap().info, "");
}

#[test]
fn digest_tells_order_from_content() {
    let a = Digest::of(["x=1", "x=2", "x=3"]);
    let b = Digest::of(["x=3", "x=1", "x=2"]);
    assert_eq!((a.lines, a.sum), (b.lines, b.sum));
    assert_ne!(a.chain, b.chain);
    let c = Digest::of(["x=1", "x=2", "x=4"]);
    assert_ne!(a.sum, c.sum);
    assert_ne!(Digest::of(["x=1"]).sum, Digest::of(["x=1", "x=1"]).sum);
}

#[test]
fn a_wrong_reply_does_not_match() {
    let none = Digest::default();
    let ack = Expect::Info("inserted=true".to_owned());
    assert!(ack.matches(true, "inserted=true", &none));
    assert!(!ack.matches(true, "inserted=false", &none), "duplicate row");
    assert!(!ack.matches(false, "inserted=true", &none), "ERR head");
    assert!(!ack.matches(true, "inserted=true", &Digest::of(["x=1"])));

    let rows = |ordered| Expect::Rows {
        ty: "employee".to_owned(),
        digest: Digest::of(["x=1", "x=2"]),
        ordered,
    };
    let swapped = Digest::of(["x=2", "x=1"]);
    assert!(rows(false).matches(true, "employee", &swapped));
    assert!(!rows(true).matches(true, "employee", &swapped), "order");
    assert!(
        !rows(false).matches(true, "person", &swapped),
        "result type"
    );
    assert!(
        !rows(false).matches(true, "employee", &Digest::of(["x=1"])),
        "lost row"
    );
    assert!(
        !rows(false).matches(true, "employee", &Digest::of(["x=1", "x=3"])),
        "wrong row"
    );
    assert!(
        !rows(false).matches(false, "employee", &swapped),
        "ERR head"
    );
}
