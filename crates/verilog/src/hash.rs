//! Stable structural hashing for cache keys.
//!
//! Content-addressed caches (the simulation, elaboration and session
//! pools in `tbgen`) need a hash that is equal for structurally equal
//! artifacts, stable across processes and platforms, and **cheap enough
//! to compute on every cache probe**. `std::collections::hash_map::
//! DefaultHasher` makes no cross-version stability promise, and the
//! first-generation scheme here — FNV-1a over a `Debug`/pretty-print
//! rendering — was stable but cost nearly as much as elaboration itself
//! (formatting machinery, per-node string traffic).
//!
//! The current scheme is a direct structural visitor: [`StructuralHash`]
//! walks a value's own shape, feeding variant tags and payloads straight
//! into an FNV-1a state ([`FingerprintHasher`]) with no intermediate
//! text. The result is a typed [`Fingerprint`] — cache keys carry the
//! newtype, so a raw `u64` from some other hash cannot be confused for
//! a content address.
//!
//! The old renderings survive only inside the tests, as oracles: FNV-1a
//! over the pretty-print or the `Debug` rendering defines what
//! "distinguishable" means, and the differential suite
//! (`tests/fingerprint_props.rs`) pins that visitor fingerprints
//! separate every design pair the pretty-print hash separates while
//! agreeing on re-parses. Cache-key paths must not render (a
//! source-scan test in `tbgen` enforces it).

use crate::ast::{
    AlwaysBlock, AssignItem, CaseArm, CaseKind, Connections, Direction, Edge, EventControl,
    EventExpr, Expr, Instance, Item, LValue, Module, NetDecl, NetKind, ParamDecl, PortDecl, Range,
    SourceFile, Stmt, SysArg, UnaryOp,
};
use std::fmt;

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A stable 64-bit structural fingerprint — the typed content address of
/// one artifact (design source, checker program, scenario set, port
/// signature). Equal values fingerprint equal in any process on any
/// platform; the newtype keeps cache keys from silently accepting hashes
/// computed some other way.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// An incremental FNV-1a state fed by structural visitors. Variant tags,
/// lengths and payload words go in directly — no `Debug` or
/// pretty-print rendering, no intermediate allocation.
#[derive(Clone, Copy, Debug)]
pub struct FingerprintHasher(u64);

impl FingerprintHasher {
    /// A fresh state at the FNV-1a offset basis.
    pub fn new() -> Self {
        FingerprintHasher(0xcbf2_9ce4_8422_2325)
    }

    /// The accumulated fingerprint.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.0)
    }

    /// Folds raw bytes into the state.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one byte — enum variant tags use this.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds a 64-bit word (little-endian byte order, fixed width so
    /// adjacent fields cannot alias each other's bytes).
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.write_bytes(&w.to_le_bytes());
    }

    /// Folds a `usize` as a 64-bit word (stable across platforms).
    #[inline]
    pub fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Folds an `i64` via its two's-complement bits.
    #[inline]
    pub fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }

    /// Folds a boolean as one byte.
    #[inline]
    pub fn write_bool(&mut self, b: bool) {
        self.write_u8(b as u8);
    }

    /// Folds a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// cannot collide.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher::new()
    }
}

/// Direct structural hashing: a visitor over the value's own shape.
///
/// Implementations must be *injective up to structural equality*: two
/// values feed identical byte streams iff they are structurally equal.
/// The conventions that guarantee it: every enum writes a variant tag
/// before its payload, every sequence writes its length before its
/// elements, and strings are length-prefixed.
pub trait StructuralHash {
    /// Feeds this value's structure into `h`.
    fn hash_structure(&self, h: &mut FingerprintHasher);

    /// The fingerprint of this value, computed fresh. Types with a
    /// cached fingerprint (see [`SourceFile::fingerprint`]) shadow this
    /// with an inherent method; calling the trait method always
    /// recomputes.
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        self.hash_structure(&mut h);
        h.finish()
    }
}

impl<T: StructuralHash + ?Sized> StructuralHash for &T {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        (**self).hash_structure(h);
    }
}

impl<T: StructuralHash> StructuralHash for Box<T> {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        (**self).hash_structure(h);
    }
}

impl<T: StructuralHash> StructuralHash for [T] {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_usize(self.len());
        for item in self {
            item.hash_structure(h);
        }
    }
}

impl<T: StructuralHash> StructuralHash for Vec<T> {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.as_slice().hash_structure(h);
    }
}

impl<T: StructuralHash> StructuralHash for Option<T> {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.hash_structure(h);
            }
        }
    }
}

impl<A: StructuralHash, B: StructuralHash> StructuralHash for (A, B) {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.0.hash_structure(h);
        self.1.hash_structure(h);
    }
}

impl StructuralHash for str {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_str(self);
    }
}

impl StructuralHash for String {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_str(self);
    }
}

impl StructuralHash for bool {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_bool(*self);
    }
}

impl StructuralHash for u64 {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_u64(*self);
    }
}

impl StructuralHash for usize {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_usize(*self);
    }
}

impl StructuralHash for i64 {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_i64(*self);
    }
}

// ---------------------------------------------------------------------
// AST visitor. Fieldless enums cast to their discriminant; every
// payload-carrying enum writes an explicit tag byte first.
// ---------------------------------------------------------------------

impl StructuralHash for SourceFile {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.modules.hash_structure(h);
    }
}

impl StructuralHash for Module {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_str(&self.name);
        self.port_order.hash_structure(h);
        self.ports.hash_structure(h);
        self.items.hash_structure(h);
    }
}

impl StructuralHash for Direction {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_u8(*self as u8);
    }
}

impl StructuralHash for NetKind {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_u8(*self as u8);
    }
}

impl StructuralHash for Edge {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_u8(*self as u8);
    }
}

impl StructuralHash for CaseKind {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_u8(*self as u8);
    }
}

impl StructuralHash for UnaryOp {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_u8(*self as u8);
    }
}

impl StructuralHash for crate::ast::BinaryOp {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_u8(*self as u8);
    }
}

impl StructuralHash for Range {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_i64(self.msb);
        h.write_i64(self.lsb);
    }
}

impl StructuralHash for PortDecl {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_str(&self.name);
        self.dir.hash_structure(h);
        self.net.hash_structure(h);
        h.write_bool(self.signed);
        self.range.hash_structure(h);
    }
}

impl StructuralHash for Item {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        match self {
            Item::Net(d) => {
                h.write_u8(0);
                d.hash_structure(h);
            }
            Item::Param(p) => {
                h.write_u8(1);
                p.hash_structure(h);
            }
            Item::Assign(a) => {
                h.write_u8(2);
                a.hash_structure(h);
            }
            Item::Always(a) => {
                h.write_u8(3);
                a.hash_structure(h);
            }
            Item::Initial(s) => {
                h.write_u8(4);
                s.hash_structure(h);
            }
            Item::Instance(i) => {
                h.write_u8(5);
                i.hash_structure(h);
            }
        }
    }
}

impl StructuralHash for NetDecl {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.kind.hash_structure(h);
        h.write_bool(self.signed);
        self.range.hash_structure(h);
        self.names.hash_structure(h);
    }
}

impl StructuralHash for ParamDecl {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_bool(self.local);
        h.write_str(&self.name);
        self.value.hash_structure(h);
    }
}

impl StructuralHash for AssignItem {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.lhs.hash_structure(h);
        self.rhs.hash_structure(h);
    }
}

impl StructuralHash for AlwaysBlock {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.event.hash_structure(h);
        self.body.hash_structure(h);
    }
}

impl StructuralHash for EventControl {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        match self {
            EventControl::Star => h.write_u8(0),
            EventControl::List(es) => {
                h.write_u8(1);
                es.hash_structure(h);
            }
        }
    }
}

impl StructuralHash for EventExpr {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.edge.hash_structure(h);
        h.write_str(&self.signal);
    }
}

impl StructuralHash for Instance {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_str(&self.module);
        h.write_str(&self.name);
        self.conns.hash_structure(h);
    }
}

impl StructuralHash for Connections {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        match self {
            Connections::Ordered(es) => {
                h.write_u8(0);
                es.hash_structure(h);
            }
            Connections::Named(ns) => {
                h.write_u8(1);
                ns.hash_structure(h);
            }
        }
    }
}

impl StructuralHash for Stmt {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        match self {
            Stmt::Block(stmts) => {
                h.write_u8(0);
                stmts.hash_structure(h);
            }
            Stmt::Blocking(lv, e) => {
                h.write_u8(1);
                lv.hash_structure(h);
                e.hash_structure(h);
            }
            Stmt::NonBlocking(lv, e) => {
                h.write_u8(2);
                lv.hash_structure(h);
                e.hash_structure(h);
            }
            Stmt::If {
                cond,
                then_stmt,
                else_stmt,
            } => {
                h.write_u8(3);
                cond.hash_structure(h);
                then_stmt.hash_structure(h);
                else_stmt.hash_structure(h);
            }
            Stmt::Case { kind, expr, arms } => {
                h.write_u8(4);
                kind.hash_structure(h);
                expr.hash_structure(h);
                arms.hash_structure(h);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                h.write_u8(5);
                init.hash_structure(h);
                cond.hash_structure(h);
                step.hash_structure(h);
                body.hash_structure(h);
            }
            Stmt::While { cond, body } => {
                h.write_u8(6);
                cond.hash_structure(h);
                body.hash_structure(h);
            }
            Stmt::Repeat { count, body } => {
                h.write_u8(7);
                count.hash_structure(h);
                body.hash_structure(h);
            }
            Stmt::Forever(body) => {
                h.write_u8(8);
                body.hash_structure(h);
            }
            Stmt::Delay { delay, stmt } => {
                h.write_u8(9);
                h.write_u64(*delay);
                stmt.hash_structure(h);
            }
            Stmt::EventWait { event, stmt } => {
                h.write_u8(10);
                event.hash_structure(h);
                stmt.hash_structure(h);
            }
            Stmt::SysCall { name, args } => {
                h.write_u8(11);
                h.write_str(name);
                args.hash_structure(h);
            }
            Stmt::Empty => h.write_u8(12),
        }
    }
}

impl StructuralHash for CaseArm {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.labels.hash_structure(h);
        self.body.hash_structure(h);
    }
}

impl StructuralHash for SysArg {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        match self {
            SysArg::Str(s) => {
                h.write_u8(0);
                h.write_str(s);
            }
            SysArg::Expr(e) => {
                h.write_u8(1);
                e.hash_structure(h);
            }
        }
    }
}

impl StructuralHash for LValue {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        match self {
            LValue::Ident(n) => {
                h.write_u8(0);
                h.write_str(n);
            }
            LValue::Bit(n, i) => {
                h.write_u8(1);
                h.write_str(n);
                i.hash_structure(h);
            }
            LValue::Part(n, msb, lsb) => {
                h.write_u8(2);
                h.write_str(n);
                h.write_i64(*msb);
                h.write_i64(*lsb);
            }
            LValue::IndexedPart(n, base, width) => {
                h.write_u8(3);
                h.write_str(n);
                base.hash_structure(h);
                h.write_usize(*width);
            }
            LValue::Concat(parts) => {
                h.write_u8(4);
                parts.hash_structure(h);
            }
        }
    }
}

impl StructuralHash for Expr {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        match self {
            Expr::Literal { value, signed } => {
                h.write_u8(0);
                value.hash_structure(h);
                h.write_bool(*signed);
            }
            Expr::Ident(n) => {
                h.write_u8(1);
                h.write_str(n);
            }
            Expr::Unary(op, e) => {
                h.write_u8(2);
                op.hash_structure(h);
                e.hash_structure(h);
            }
            Expr::Binary(op, a, b) => {
                h.write_u8(3);
                op.hash_structure(h);
                a.hash_structure(h);
                b.hash_structure(h);
            }
            Expr::Ternary(c, a, b) => {
                h.write_u8(4);
                c.hash_structure(h);
                a.hash_structure(h);
                b.hash_structure(h);
            }
            Expr::Concat(es) => {
                h.write_u8(5);
                es.hash_structure(h);
            }
            Expr::Repl(n, e) => {
                h.write_u8(6);
                h.write_usize(*n);
                e.hash_structure(h);
            }
            Expr::Bit(n, i) => {
                h.write_u8(7);
                h.write_str(n);
                i.hash_structure(h);
            }
            Expr::Part(n, msb, lsb) => {
                h.write_u8(8);
                h.write_str(n);
                h.write_i64(*msb);
                h.write_i64(*lsb);
            }
            Expr::IndexedPart(n, base, width) => {
                h.write_u8(9);
                h.write_str(n);
                base.hash_structure(h);
                h.write_usize(*width);
            }
            Expr::SysFunc(name, args) => {
                h.write_u8(10);
                h.write_str(name);
                args.hash_structure(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::pretty::print_file;

    /// The pretty-print oracle: FNV-1a over the rendered source.
    fn structural_hash(file: &SourceFile) -> u64 {
        fnv1a64(print_file(file).as_bytes())
    }

    const SRC: &str =
        "module inc(input [3:0] a, output [3:0] y);\nassign y = a + 4'd1;\nendmodule\n";

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_bytes_match_slice_hash() {
        let mut h = FingerprintHasher::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), Fingerprint(fnv1a64(b"foobar")));
    }

    #[test]
    fn fingerprint_is_formatting_insensitive() {
        let a = parse(SRC).expect("parses");
        let b = parse(&SRC.replace('\n', "  \n ")).expect("parses");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_separates_different_designs() {
        let a = parse(SRC).expect("parses");
        let b = parse(&SRC.replace("a + 4'd1", "a - 4'd1")).expect("parses");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn oracle_hash_is_formatting_insensitive() {
        let a = parse(SRC).expect("parses");
        let b = parse(&SRC.replace('\n', "  \n ")).expect("parses");
        assert_eq!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn strings_are_length_prefixed() {
        // ("ab", "c") vs ("a", "bc"): same byte stream without prefixes.
        let a = ("ab".to_string(), "c".to_string());
        let b = ("a".to_string(), "bc".to_string());
        assert_ne!(
            StructuralHash::fingerprint(&a),
            StructuralHash::fingerprint(&b)
        );
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", Fingerprint(0xab)), "00000000000000ab");
    }
}
