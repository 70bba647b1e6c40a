//! Randomised tests: the BDD engine against a brute-force truth-table
//! oracle on seeded random Boolean expressions.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bfl_bdd::{Manager, Var, WatermarkMemo};

/// A small Boolean expression AST for oracle testing.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    Const(bool),
}

const NVARS: u32 = 6;

/// Random cases per property.
const CASES: u64 = 256;

/// SplitMix64, inlined because this crate sits below `bfl-fault-tree`
/// and its shared generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

/// One seeded generator per case.
fn cases() -> impl Iterator<Item = Rng> {
    (0..CASES).map(Rng)
}

/// A random expression at most `depth` operators deep.
fn random_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return if rng.below(8) == 0 {
            Expr::Const(rng.below(2) == 1)
        } else {
            Expr::Var(rng.below(NVARS))
        };
    }
    let sub = |rng: &mut Rng| Box::new(random_expr(rng, depth - 1));
    match rng.below(5) {
        0 => Expr::Not(sub(rng)),
        1 => Expr::And(sub(rng), sub(rng)),
        2 => Expr::Or(sub(rng), sub(rng)),
        3 => Expr::Xor(sub(rng), sub(rng)),
        _ => Expr::Ite(sub(rng), sub(rng), sub(rng)),
    }
}

fn arb_expr(rng: &mut Rng) -> Expr {
    random_expr(rng, 5)
}

fn eval_expr(e: &Expr, bits: u32) -> bool {
    match e {
        Expr::Var(v) => (bits >> v) & 1 == 1,
        Expr::Not(a) => !eval_expr(a, bits),
        Expr::And(a, b) => eval_expr(a, bits) && eval_expr(b, bits),
        Expr::Or(a, b) => eval_expr(a, bits) || eval_expr(b, bits),
        Expr::Xor(a, b) => eval_expr(a, bits) ^ eval_expr(b, bits),
        Expr::Ite(a, b, c) => {
            if eval_expr(a, bits) {
                eval_expr(b, bits)
            } else {
                eval_expr(c, bits)
            }
        }
        Expr::Const(c) => *c,
    }
}

fn build_bdd(m: &mut Manager, e: &Expr) -> bfl_bdd::Bdd {
    match e {
        Expr::Var(v) => m.var(Var(*v)),
        Expr::Not(a) => {
            let x = build_bdd(m, a);
            m.not(x)
        }
        Expr::And(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.and(x, y)
        }
        Expr::Or(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.or(x, y)
        }
        Expr::Xor(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.xor(x, y)
        }
        Expr::Ite(a, b, c) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            let z = build_bdd(m, c);
            m.ite(x, y, z)
        }
        Expr::Const(c) => m.constant(*c),
    }
}

/// The BDD agrees with direct expression evaluation on every input.
#[test]
fn bdd_matches_truth_table() {
    for mut rng in cases() {
        let e = arb_expr(&mut rng);
        let mut m = Manager::new(NVARS);
        let f = build_bdd(&mut m, &e);
        for bits in 0..(1u32 << NVARS) {
            let expect = eval_expr(&e, bits);
            let got = m.eval(f, |v| (bits >> v.index()) & 1 == 1);
            assert_eq!(got, expect, "{e:?} at bits={bits:b}");
        }
    }
}

/// Canonicity: two expressions with equal truth tables get equal handles.
#[test]
fn canonicity() {
    let table = |e: &Expr| -> u64 {
        let mut t = 0u64;
        for bits in 0..(1u32 << NVARS) {
            if eval_expr(e, bits) {
                t |= 1 << bits;
            }
        }
        t
    };
    for mut rng in cases() {
        let e1 = arb_expr(&mut rng);
        let e2 = arb_expr(&mut rng);
        let mut m = Manager::new(NVARS);
        let f1 = build_bdd(&mut m, &e1);
        let f2 = build_bdd(&mut m, &e2);
        assert_eq!(table(&e1) == table(&e2), f1 == f2, "{e1:?} vs {e2:?}");
    }
}

/// sat_count equals the number of true rows of the truth table.
#[test]
fn sat_count_matches() {
    for mut rng in cases() {
        let e = arb_expr(&mut rng);
        let mut m = Manager::new(NVARS);
        let f = build_bdd(&mut m, &e);
        let expect = (0..(1u32 << NVARS)).filter(|&b| eval_expr(&e, b)).count() as u128;
        assert_eq!(m.sat_count(f, NVARS), Some(expect), "{e:?}");
    }
}

/// sat_vectors yields exactly the satisfying rows, each once, and
/// sat_paths the disjoint cubes that cover them, low branch first.
#[test]
fn sat_vectors_match() {
    for mut rng in cases() {
        let e = arb_expr(&mut rng);
        let mut m = Manager::new(NVARS);
        let f = build_bdd(&mut m, &e);
        let vars: Vec<Var> = (0..NVARS).map(Var).collect();
        let mut got: Vec<Vec<bool>> = m.sat_vectors(f, &vars).collect();
        let yielded = got.len();
        got.sort();
        got.dedup();
        assert_eq!(got.len(), yielded, "{e:?}: a vector was yielded twice");
        let mut expect = Vec::new();
        for bits in 0..(1u32 << NVARS) {
            if eval_expr(&e, bits) {
                expect.push(
                    (0..NVARS)
                        .map(|v| (bits >> v) & 1 == 1)
                        .collect::<Vec<bool>>(),
                );
            }
        }
        expect.sort();
        assert_eq!(got, expect, "{e:?}");
        let paths: Vec<_> = m.sat_paths(f).collect();
        let covered: u32 = paths.iter().map(|p| 1 << (NVARS - p.len() as u32)).sum();
        assert_eq!(covered as usize, expect.len(), "{e:?}");
        for pair in paths.windows(2) {
            // Consecutive paths part where the first takes the low edge.
            let split = pair[0]
                .iter()
                .zip(&pair[1])
                .position(|(a, b)| a != b)
                .expect("distinct paths differ at a decision");
            assert_eq!(pair[0][split].0, pair[1][split].0, "{e:?}");
            assert!(!pair[0][split].1 && pair[1][split].1, "{e:?}");
        }
    }
}

/// Shannon expansion: f = ite(v, f[v↦1], f[v↦0]).
#[test]
fn restrict_shannon() {
    for mut rng in cases() {
        let e = arb_expr(&mut rng);
        let v = rng.below(NVARS);
        let mut m = Manager::new(NVARS);
        let f = build_bdd(&mut m, &e);
        let f1 = m.restrict(f, Var(v), true);
        let f0 = m.restrict(f, Var(v), false);
        let lit = m.var(Var(v));
        let back = m.ite(lit, f1, f0);
        assert_eq!(back, f, "{e:?} on x{v}");
    }
}

/// Quantification: ∃v.f is the or of cofactors; ∀v.f the and.
#[test]
fn quantification() {
    for mut rng in cases() {
        let e = arb_expr(&mut rng);
        let v = rng.below(NVARS);
        let mut m = Manager::new(NVARS);
        let f = build_bdd(&mut m, &e);
        let f1 = m.restrict(f, Var(v), true);
        let f0 = m.restrict(f, Var(v), false);
        let ex = m.exists(f, &[Var(v)]);
        let expect_ex = m.or(f0, f1);
        assert_eq!(ex, expect_ex, "{e:?} on x{v}");
        let fa = m.forall(f, &[Var(v)]);
        let expect_fa = m.and(f0, f1);
        assert_eq!(fa, expect_fa, "{e:?} on x{v}");
    }
}

/// and_exists(f, g, V) = ∃V.(f ∧ g).
#[test]
fn relational_product() {
    for mut rng in cases() {
        let e1 = arb_expr(&mut rng);
        let e2 = arb_expr(&mut rng);
        let (v1, v2) = (rng.below(NVARS), rng.below(NVARS));
        let mut m = Manager::new(NVARS);
        let f = build_bdd(&mut m, &e1);
        let g = build_bdd(&mut m, &e2);
        let vars = if v1 == v2 {
            vec![Var(v1)]
        } else {
            vec![Var(v1), Var(v2)]
        };
        let fused = m.and_exists(f, g, &vars);
        let conj = m.and(f, g);
        let naive = m.exists(conj, &vars);
        assert_eq!(fused, naive, "{e1:?} and {e2:?} over {vars:?}");
    }
}

/// support() returns exactly the variables the function depends on.
#[test]
fn support_semantic() {
    for mut rng in cases() {
        let e = arb_expr(&mut rng);
        let mut m = Manager::new(NVARS);
        let f = build_bdd(&mut m, &e);
        let support = m.support(f);
        for v in 0..NVARS {
            let f1 = m.restrict(f, Var(v), true);
            let f0 = m.restrict(f, Var(v), false);
            let depends = f1 != f0;
            assert_eq!(support.contains(&Var(v)), depends, "{e:?}: var {v}");
        }
    }
}

/// Renaming by an order-preserving shift preserves semantics modulo the
/// variable map.
#[test]
fn rename_shift() {
    for mut rng in cases() {
        let e = arb_expr(&mut rng);
        let mut m = Manager::new(2 * NVARS);
        let f = build_bdd(&mut m, &e);
        let g = m.rename(f, &|v| Var(v.index() + NVARS));
        for bits in 0..(1u32 << NVARS) {
            let ef = m.eval(f, |v| (bits >> v.index()) & 1 == 1);
            let eg = m.eval(g, |v| {
                assert!(v.index() >= NVARS);
                (bits >> (v.index() - NVARS)) & 1 == 1
            });
            assert_eq!(ef, eg, "{e:?}");
        }
    }
}

/// compose(f, v, g) equals substitution in the truth table.
#[test]
fn compose_matches() {
    for mut rng in cases() {
        let e1 = arb_expr(&mut rng);
        let e2 = arb_expr(&mut rng);
        let v = rng.below(NVARS);
        let mut m = Manager::new(NVARS);
        let f = build_bdd(&mut m, &e1);
        let g = build_bdd(&mut m, &e2);
        let h = m.compose(f, Var(v), g);
        for bits in 0..(1u32 << NVARS) {
            let gv = eval_expr(&e2, bits);
            let newbits = if gv {
                bits | (1 << v)
            } else {
                bits & !(1 << v)
            };
            let expect = eval_expr(&e1, newbits);
            let got = m.eval(h, |u| (bits >> u.index()) & 1 == 1);
            assert_eq!(got, expect, "{e1:?}[x{v} := {e2:?}]");
        }
    }
}

/// and_all/or_all equal the sequential and/or fold for every operand
/// count from 0 to 9, odd counts included, and leave an arena that
/// audits clean.
#[test]
fn n_ary_folds_match_sequential_folds() {
    for mut rng in cases() {
        let mut m = Manager::new(NVARS);
        for len in 0..=9 {
            let fs: Vec<_> = (0..len)
                .map(|_| {
                    let e = arb_expr(&mut rng);
                    build_bdd(&mut m, &e)
                })
                .collect();
            // The n-ary forms run first, so the caches cannot hand them
            // the sequential fold's answers.
            let and_all = m.and_all(fs.iter().copied());
            let or_all = m.or_all(fs.iter().copied());
            let and_seq = fs.iter().fold(m.top(), |acc, &f| m.and(acc, f));
            let or_seq = fs.iter().fold(m.bot(), |acc, &f| m.or(acc, f));
            assert_eq!(and_all, and_seq, "and_all over {len} operands");
            assert_eq!(or_all, or_seq, "or_all over {len} operands");
        }
        let audit = m.audit();
        assert!(audit.is_ok(), "{audit}");
    }
}

/// Interleaved layout of the rollback test: event `k` is `Var(2k)`, its
/// primed copy `Var(2k + 1)`, as the model checker allocates them.
const ROLLBACK_VARS: u32 = 2 * NVARS;

/// Builds `e` over the unprimed (even) variables.
fn build_unprimed(m: &mut Manager, e: &Expr) -> bfl_bdd::Bdd {
    let f = build_bdd(m, e);
    m.rename(f, &|v| Var(2 * v.index()))
}

/// Runs a seeded sequence of kernel calls over `pool`, appending each
/// result, and returns the results. The same seed on an equal pool makes
/// the same calls.
fn random_calls(m: &mut Manager, pool: &mut Vec<bfl_bdd::Bdd>, seed: u64) -> Vec<bfl_bdd::Bdd> {
    let mut rng = Rng(seed);
    let pairs: Vec<(Var, Var)> = (0..NVARS).map(|k| (Var(2 * k), Var(2 * k + 1))).collect();
    let primed: Vec<Var> = pairs.iter().map(|&(_, p)| p).collect();
    let mut out = Vec::new();
    for _ in 0..12 {
        let pick =
            |rng: &mut Rng, pool: &[bfl_bdd::Bdd]| pool[rng.below(pool.len() as u32) as usize];
        let f = pick(&mut rng, pool);
        let g = pick(&mut rng, pool);
        let h = pick(&mut rng, pool);
        let r = match rng.below(9) {
            0 => m.and(f, g),
            1 => m.or(f, g),
            2 => m.not(f),
            3 => m.ite(f, g, h),
            4 => {
                let pins: Vec<(Var, bool)> = (0..3)
                    .map(|_| (Var(rng.below(ROLLBACK_VARS)), rng.below(2) == 1))
                    .collect();
                m.restrict_many(f, &pins)
            }
            5 => m.exists(f, &[Var(rng.below(ROLLBACK_VARS))]),
            6 => m.and_exists(f, g, &primed),
            7 if m.support(f).iter().all(|v| v.index() % 2 == 0) => {
                m.rename(f, &|v| Var(v.index() + 1))
            }
            _ => m.strict_superset(&pairs[..1 + rng.below(NVARS) as usize]),
        };
        pool.push(r);
        out.push(r);
    }
    out
}

/// Sampled truth table of `f` over the rollback layout.
fn sampled_table(m: &Manager, f: bfl_bdd::Bdd) -> Vec<bool> {
    let mut rng = Rng(0x7AB1E);
    (0..64)
        .map(|_| {
            let bits = rng.next();
            m.eval(f, |v| (bits >> v.index()) & 1 == 1)
        })
        .collect()
}

/// A rollback leaves the arena, the unique table and the caches as the
/// mark found them: the arena audits clean, the next new node takes the
/// mark's index, and replaying the same calls rebuilds the same
/// functions (no cache entry hands back a dropped node).
#[test]
fn rollback_restores_the_marked_arena() {
    let mut dropped_any = false;
    for (case, mut rng) in cases().enumerate() {
        // One spare variable that no call touches, for the index check.
        let spare = Var(ROLLBACK_VARS);
        let mut m = Manager::new(ROLLBACK_VARS + 1);
        let base: Vec<_> = (0..3)
            .map(|_| {
                let e = arb_expr(&mut rng);
                build_unprimed(&mut m, &e)
            })
            .collect();
        let seed = 0xD0_0000 + case as u64;
        let mark = m.watermark();
        let first = random_calls(&mut m, &mut base.clone(), seed);
        let tables: Vec<Vec<bool>> = first.iter().map(|&f| sampled_table(&m, f)).collect();
        dropped_any |= m.rollback(mark) > 0;
        assert_eq!(m.arena_size(), mark.arena_size(), "case {case}");
        let audit = m.audit_with(usize::MAX);
        assert_eq!(audit.violation_count, 0, "case {case}: {audit}");
        assert_eq!(m.var(spare).id() as usize, mark.arena_size(), "case {case}");
        let again = random_calls(&mut m, &mut base.clone(), seed);
        for (i, (&f, table)) in again.iter().zip(&tables).enumerate() {
            assert_eq!(&sampled_table(&m, f), table, "case {case}, call {i}");
        }
        let audit = m.audit_with(usize::MAX);
        assert!(audit.is_ok(), "case {case}: {audit}");
    }
    assert!(dropped_any, "no case built anything to roll back");
}

/// Roots kept by the nested-rollback test: each with its expression and
/// the arena size once it was built.
type Kept = Vec<(bfl_bdd::Bdd, Expr, usize)>;

/// Every kept root still has its expression's truth table, and the arena
/// audits clean, every computed-table entry that may hit included.
fn check_kept(m: &Manager, kept: &Kept, at: &str) {
    for (f, e, _) in kept {
        for bits in 0..(1u32 << NVARS) {
            let got = m.eval(*f, |v| (bits >> v.index()) & 1 == 1);
            assert_eq!(got, eval_expr(e, bits), "{at}: {e:?} at bits={bits:b}");
        }
    }
    let audit = m.audit_with(usize::MAX);
    assert!(audit.is_ok(), "{at}: {audit}");
}

/// Builds two new expressions, then those a rollback dropped.
fn build_kept(m: &mut Manager, rng: &mut Rng, kept: &mut Kept, dropped: &mut Vec<Expr>, at: &str) {
    // New expressions first and the dropped ones in reverse: rebuilt in
    // their old order, they would take their old ids back.
    let fresh = [arb_expr(rng), arb_expr(rng)];
    for e in fresh.into_iter().chain(dropped.drain(..).rev()) {
        let f = build_bdd(m, &e);
        kept.push((f, e, m.arena_size()));
    }
    check_kept(m, kept, at);
}

fn roll_back_kept(
    m: &mut Manager,
    mark: bfl_bdd::Watermark,
    kept: &mut Kept,
    dropped: &mut Vec<Expr>,
    at: &str,
) {
    m.rollback(mark);
    let (stay, gone): (Kept, Kept) = kept.drain(..).partition(|k| k.2 <= mark.arena_size());
    *kept = stay;
    dropped.extend(gone.into_iter().map(|k| k.1));
    check_kept(m, kept, at);
}

/// Nested watermarks: roll back to an inner mark, then to the outer mark
/// below it, then to a mark above that. Between the rollbacks the
/// dropped expressions are built again, so fresh nodes take the dropped
/// ids and meet the operand pairs of entries written before: an entry
/// over a dropped node that still hit would hand back a wrong function.
#[test]
fn nested_rollbacks_keep_every_result_and_a_clean_arena() {
    for (case, mut rng) in cases().enumerate() {
        let rng = &mut rng;
        let mut m = Manager::new(NVARS);
        let (mut kept, mut dropped) = (Kept::new(), Vec::new());
        let at = |step: &str| format!("case {case}, {step}");
        build_kept(&mut m, rng, &mut kept, &mut dropped, &at("base"));
        let outer = m.watermark();
        build_kept(&mut m, rng, &mut kept, &mut dropped, &at("outer"));
        let inner = m.watermark();
        build_kept(&mut m, rng, &mut kept, &mut dropped, &at("inner"));
        roll_back_kept(&mut m, inner, &mut kept, &mut dropped, &at("back to inner"));
        build_kept(&mut m, rng, &mut kept, &mut dropped, &at("after inner"));
        roll_back_kept(&mut m, outer, &mut kept, &mut dropped, &at("back to outer"));
        build_kept(&mut m, rng, &mut kept, &mut dropped, &at("after outer"));
        let upper = m.watermark();
        build_kept(&mut m, rng, &mut kept, &mut dropped, &at("upper"));
        roll_back_kept(&mut m, upper, &mut kept, &mut dropped, &at("back to upper"));
        build_kept(&mut m, rng, &mut kept, &mut dropped, &at("after upper"));
    }
}

/// `sat_count_over` equals a brute-force count over universes with gaps
/// and with variables outside the support.
#[test]
fn sat_count_over_matches_brute_force() {
    for mut rng in cases() {
        let e = arb_expr(&mut rng);
        let mut m = Manager::new(NVARS);
        let f = build_bdd(&mut m, &e);
        let support = m.support(f);
        let universe: Vec<Var> = (0..NVARS)
            .map(Var)
            .filter(|v| support.contains(v) || rng.below(2) == 0)
            .collect();
        // Variables outside the universe are outside the support: any
        // value will do, so they stay 0.
        let expect = (0..1u32 << universe.len())
            .filter(|&bits| {
                let spread = universe
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (i, v)| acc | (((bits >> i) & 1) << v.index()));
                eval_expr(&e, spread)
            })
            .count() as u128;
        assert_eq!(
            m.sat_count_over(f, &universe),
            Some(expect),
            "{e:?} over {universe:?}"
        );
    }
}

/// `sat_count_over` answers `None` exactly past `u128::MAX`, across gaps
/// in the universe.
#[test]
fn sat_count_over_stops_at_the_u128_boundary() {
    let mut m = Manager::new(200);
    let x = m.var(Var(7));
    let gappy =
        |n: usize| -> Vec<Var> { (0..200).filter(|i| i % 3 != 0).map(Var).take(n).collect() };
    assert_eq!(m.sat_count_over(m.top(), &gappy(127)), Some(1 << 127));
    assert_eq!(m.sat_count_over(m.top(), &gappy(128)), None);
    assert_eq!(m.sat_count_over(m.bot(), &gappy(133)), Some(0));
    assert_eq!(m.sat_count_over(x, &gappy(128)), Some(1 << 127));
    assert_eq!(m.sat_count_over(x, &gappy(129)), None);
    let top: Vec<Var> = (0..127).map(Var).collect();
    assert_eq!(m.sat_count_over(m.top(), &top), Some(1 << 127));
    let top: Vec<Var> = (0..128).map(Var).collect();
    assert_eq!(m.sat_count_over(m.top(), &top), None);
}

/// `restrict_many` with every binding outside the support (undeclared
/// variables included) returns the same handle and grows no arena;
/// mixed with bindings inside, it matches the truth table with the first
/// binding of each variable applied.
#[test]
fn restrict_many_outside_the_support_is_free() {
    for mut rng in cases() {
        let e = arb_expr(&mut rng);
        // Two declared variables no expression uses.
        let mut m = Manager::new(NVARS + 2);
        let f = build_bdd(&mut m, &e);
        let support = m.support(f);
        let outside: Vec<Var> = (0..NVARS + 3)
            .map(Var)
            .filter(|v| !support.contains(v))
            .collect();
        let mut pins: Vec<(Var, bool)> = (0..1 + rng.below(4))
            .map(|_| {
                let v = outside[rng.below(outside.len() as u32) as usize];
                (v, rng.below(2) == 1)
            })
            .collect();
        let before = m.arena_size();
        assert_eq!(m.restrict_many(f, &pins), f, "{e:?} under {pins:?}");
        assert_eq!(m.arena_size(), before, "{e:?} under {pins:?}");

        for _ in 0..rng.below(4) {
            let at = rng.below(pins.len() as u32 + 1) as usize;
            pins.insert(at, (Var(rng.below(NVARS)), rng.below(2) == 1));
        }
        let r = m.restrict_many(f, &pins);
        for bits in 0..(1u32 << NVARS) {
            let mut pinned = bits;
            for &(v, b) in pins.iter().rev() {
                if v.index() < NVARS {
                    pinned = (pinned & !(1 << v.index())) | (u32::from(b) << v.index());
                }
            }
            let got = m.eval(r, |v| (bits >> v.index()) & 1 == 1);
            assert_eq!(got, eval_expr(&e, pinned), "{e:?} under {pins:?}");
        }
        let audit = m.audit();
        assert!(audit.is_ok(), "{audit}");
    }
}

/// The recursive Shannon walk the engine's explicit stack replaced: the
/// reference for its post-order and its bits.
fn recursive_probability(m: &Manager, f: bfl_bdd::Bdd, weight: &dyn Fn(Var) -> f64) -> f64 {
    if f.is_terminal() {
        return if f.is_true() { 1.0 } else { 0.0 };
    }
    let node = m.node(f);
    let lo = recursive_probability(m, node.low, weight);
    let hi = recursive_probability(m, node.high, weight);
    let w = weight(node.var);
    (1.0 - w) * lo + w * hi
}

/// The probability walk gives the bits of the recursion it replaced, on
/// the point walk and on the degenerate interval walk alike.
#[test]
fn probability_walk_matches_the_recursive_walk_bit_for_bit() {
    let weight = |v: Var| 0.03 + 0.17 * f64::from(v.index());
    for mut rng in cases() {
        let e = arb_expr(&mut rng);
        let mut m = Manager::new(NVARS);
        let f = build_bdd(&mut m, &e);
        let want = recursive_probability(&m, f, &weight);
        assert_eq!(m.probability(f, weight).to_bits(), want.to_bits(), "{e:?}");
        let (lo, hi) = m.probability_interval(f, |v| (weight(v), weight(v)));
        assert_eq!(
            (lo.to_bits(), hi.to_bits()),
            (want.to_bits(), want.to_bits())
        );
    }
}

/// A `WatermarkMemo` kept across requests that each roll back gives
/// every walk the bits of a walk with an empty memo: the entries of a
/// request's own nodes leave with them, while those of surviving nodes
/// are reused, also when the arena grows between requests and moves the
/// watermark.
#[test]
fn watermark_memo_across_rollbacks_matches_fresh_walks() {
    let weight = |v: Var| 0.05 + 0.13 * f64::from(v.index());
    for (case, mut rng) in cases().enumerate() {
        let mut m = Manager::new(NVARS);
        let e = arb_expr(&mut rng);
        let f = build_bdd(&mut m, &e);
        let mut memo = WatermarkMemo::new();
        let mut kept = vec![f];
        for request in 0..8 {
            if rng.below(3) == 0 {
                // A node built between requests stays, past the last mark.
                let x = m.var(Var(rng.below(NVARS)));
                let g = kept[rng.below(kept.len() as u32) as usize];
                let h = m.xor(g, x);
                kept.push(h);
            }
            let mark = m.watermark();
            memo.begin_request(mark);
            let root = kept[rng.below(kept.len() as u32) as usize];
            let pins: Vec<(Var, bool)> = (0..1 + rng.below(3))
                .map(|_| (Var(rng.below(NVARS)), rng.below(2) == 1))
                .collect();
            let r = m.restrict_many(root, &pins);
            let x = m.var(Var(rng.below(NVARS)));
            let g = m.or(r, x);
            for walked in [r, root, g] {
                let got = m.probability_with_memo(walked, &weight, &mut memo);
                let want = m.probability(walked, weight);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case}, request {request}: {e:?} under {pins:?}"
                );
            }
            m.rollback(mark);
            memo.end_request();
        }
    }
}
