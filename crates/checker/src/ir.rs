//! The checker intermediate representation.
//!
//! A [`CheckerProgram`] is the reproduction's analog of AutoBench's Python
//! checker: an independent executable artifact that computes the *reference*
//! output signals for each test stimulus. It is a word-level dataflow
//! program: a vector of [`Node`]s in topological order computing
//! combinational values from inputs and state registers, plus a list of
//! [`RegUpdate`]s applied at each clock step.
//!
//! Checker *bugs* (the thing CorrectBench exists to find) are modelled by
//! mutating nodes — see [`crate::mutate_ir`].

use correctbench_verilog::hash::{Fingerprint, FingerprintHasher, StructuralHash};
use correctbench_verilog::logic::LogicVec;
use std::fmt;

/// Index of a node in a [`CheckerProgram`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

/// Binary operations at the IR level (a deliberately small, orthogonal set;
/// the compiler lowers the full Verilog operator zoo onto it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IrBinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (x on division by zero).
    Div,
    /// Unsigned remainder.
    Mod,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical equality (1-bit result, x-propagating).
    Eq,
    /// Case (exact, 4-state) equality — always 0/1.
    CaseEq,
    /// Unsigned less-than.
    LtU,
    /// Signed less-than.
    LtS,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    AShr,
}

impl fmt::Display for IrBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IrBinOp::Add => "add",
            IrBinOp::Sub => "sub",
            IrBinOp::Mul => "mul",
            IrBinOp::Div => "div",
            IrBinOp::Mod => "mod",
            IrBinOp::And => "and",
            IrBinOp::Or => "or",
            IrBinOp::Xor => "xor",
            IrBinOp::Eq => "eq",
            IrBinOp::CaseEq => "caseeq",
            IrBinOp::LtU => "ltu",
            IrBinOp::LtS => "lts",
            IrBinOp::Shl => "shl",
            IrBinOp::Shr => "shr",
            IrBinOp::AShr => "ashr",
        };
        write!(f, "{s}")
    }
}

/// Unary operations at the IR level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IrUnOp {
    /// Bitwise NOT.
    Not,
    /// Two's-complement negation.
    Neg,
    /// Reduction AND.
    RedAnd,
    /// Reduction OR.
    RedOr,
    /// Reduction XOR.
    RedXor,
    /// Logical NOT of the truth value.
    LogicNot,
    /// Truth value (1 if any bit one, 0 if all zero, x otherwise).
    Bool,
}

/// One IR node. Operand [`NodeId`]s always refer to earlier nodes, so a
/// single forward pass evaluates the combinational part.
#[derive(Clone, PartialEq, Debug)]
pub enum Node {
    /// An input signal, fed from the stimulus record each step.
    Input {
        /// Port name in the DUT interface.
        name: String,
    },
    /// A state register (readable everywhere; written via [`RegUpdate`]).
    Reg {
        /// Register name (diagnostics only).
        name: String,
        /// Power-on value (`x` for uninitialised, matching event sim).
        init: LogicVec,
    },
    /// A constant.
    Const(LogicVec),
    /// Binary operation; operands are extended to `width` first.
    Bin {
        /// The operation.
        op: IrBinOp,
        /// Left operand.
        a: NodeId,
        /// Right operand.
        b: NodeId,
        /// Sign-extend (vs zero-extend) each operand when widening.
        signed: bool,
    },
    /// Unary operation.
    Un {
        /// The operation.
        op: IrUnOp,
        /// Operand.
        a: NodeId,
    },
    /// 2:1 multiplexer: `sel ? t : f`, with Verilog x-merge on unknown
    /// select.
    Mux {
        /// 1-bit select.
        sel: NodeId,
        /// Value when select is 1.
        t: NodeId,
        /// Value when select is 0.
        f: NodeId,
    },
    /// Extract `width` bits starting at `lo`.
    Slice {
        /// Source.
        a: NodeId,
        /// Low bit.
        lo: usize,
        /// Result width.
        width: usize,
    },
    /// Extract `width` bits starting at a *dynamic* low position.
    DynSlice {
        /// Source.
        a: NodeId,
        /// Low-bit index node.
        lo: NodeId,
        /// Result width.
        width: usize,
    },
    /// Overwrite `width` bits of `a` at a dynamic position with `b`
    /// (lowered from procedural bit/part writes).
    DynInsert {
        /// Base value.
        a: NodeId,
        /// Low-bit index node.
        lo: NodeId,
        /// Replacement bits.
        b: NodeId,
        /// Replacement width.
        width: usize,
    },
    /// Concatenation; first element is the most significant part.
    Concat(Vec<NodeId>),
    /// Replication.
    Repl {
        /// Source.
        a: NodeId,
        /// Repetition count.
        n: usize,
    },
    /// Resize to the node's width with optional sign extension.
    Ext {
        /// Source.
        a: NodeId,
        /// Sign-extend when `true`.
        signed: bool,
    },
}

/// A node plus its result width.
#[derive(Clone, PartialEq, Debug)]
pub struct NodeDef {
    /// The operation.
    pub node: Node,
    /// Result width in bits.
    pub width: usize,
}

/// A clocked register update: on each step, `reg` takes the value of
/// `next` computed by the combinational pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegUpdate {
    /// Register node (must be a [`Node::Reg`]).
    pub reg: NodeId,
    /// Combinational node with the next value.
    pub next: NodeId,
}

/// An output binding: DUT port name → node computing the reference value.
#[derive(Clone, PartialEq, Debug)]
pub struct OutputDef {
    /// Port name.
    pub name: String,
    /// Node evaluated *after* registers commit (post-edge sampling).
    pub node: NodeId,
}

/// A complete checker: the reference model of one DUT.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CheckerProgram {
    /// Nodes in topological order.
    pub nodes: Vec<NodeDef>,
    /// Clocked register updates.
    pub reg_updates: Vec<RegUpdate>,
    /// Output bindings.
    pub outputs: Vec<OutputDef>,
    /// Input port order expected in stimulus records.
    pub inputs: Vec<String>,
    /// `true` when the DUT is sequential (has registers / a clock port).
    pub sequential: bool,
}

impl CheckerProgram {
    /// The width of node `id`.
    pub fn width(&self, id: NodeId) -> usize {
        self.nodes[id.0 as usize].width
    }

    /// Pushes a node, returning its id.
    pub fn push(&mut self, node: Node, width: usize) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeDef { node, width });
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the program has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Stable structural fingerprint via a direct visitor over the IR —
    /// equal programs fingerprint equal, independent of the process, at
    /// a fraction of the old `Debug`-rendering hash's cost. Used as the
    /// checker component of simulation-cache keys and session-pool keys.
    pub fn fingerprint(&self) -> Fingerprint {
        StructuralHash::fingerprint(self)
    }

    /// Ids of all mutable (operation) nodes — the mutation surface.
    pub fn op_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                matches!(
                    d.node,
                    Node::Bin { .. } | Node::Un { .. } | Node::Mux { .. } | Node::Const(_)
                )
            })
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

impl StructuralHash for NodeId {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_u64(u64::from(self.0));
    }
}

impl StructuralHash for IrBinOp {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_u8(*self as u8);
    }
}

impl StructuralHash for IrUnOp {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_u8(*self as u8);
    }
}

impl StructuralHash for Node {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        match self {
            Node::Input { name } => {
                h.write_u8(0);
                h.write_str(name);
            }
            Node::Reg { name, init } => {
                h.write_u8(1);
                h.write_str(name);
                init.hash_structure(h);
            }
            Node::Const(v) => {
                h.write_u8(2);
                v.hash_structure(h);
            }
            Node::Bin { op, a, b, signed } => {
                h.write_u8(3);
                op.hash_structure(h);
                a.hash_structure(h);
                b.hash_structure(h);
                h.write_bool(*signed);
            }
            Node::Un { op, a } => {
                h.write_u8(4);
                op.hash_structure(h);
                a.hash_structure(h);
            }
            Node::Mux { sel, t, f } => {
                h.write_u8(5);
                sel.hash_structure(h);
                t.hash_structure(h);
                f.hash_structure(h);
            }
            Node::Slice { a, lo, width } => {
                h.write_u8(6);
                a.hash_structure(h);
                h.write_usize(*lo);
                h.write_usize(*width);
            }
            Node::DynSlice { a, lo, width } => {
                h.write_u8(7);
                a.hash_structure(h);
                lo.hash_structure(h);
                h.write_usize(*width);
            }
            Node::DynInsert { a, lo, b, width } => {
                h.write_u8(8);
                a.hash_structure(h);
                lo.hash_structure(h);
                b.hash_structure(h);
                h.write_usize(*width);
            }
            Node::Concat(ids) => {
                h.write_u8(9);
                ids.hash_structure(h);
            }
            Node::Repl { a, n } => {
                h.write_u8(10);
                a.hash_structure(h);
                h.write_usize(*n);
            }
            Node::Ext { a, signed } => {
                h.write_u8(11);
                a.hash_structure(h);
                h.write_bool(*signed);
            }
        }
    }
}

impl StructuralHash for NodeDef {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.node.hash_structure(h);
        h.write_usize(self.width);
    }
}

impl StructuralHash for RegUpdate {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.reg.hash_structure(h);
        self.next.hash_structure(h);
    }
}

impl StructuralHash for OutputDef {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        h.write_str(&self.name);
        self.node.hash_structure(h);
    }
}

impl StructuralHash for CheckerProgram {
    fn hash_structure(&self, h: &mut FingerprintHasher) {
        self.nodes.hash_structure(h);
        self.reg_updates.hash_structure(h);
        self.outputs.hash_structure(h);
        self.inputs.hash_structure(h);
        h.write_bool(self.sequential);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_width() {
        let mut p = CheckerProgram::default();
        let a = p.push(
            Node::Input {
                name: "a".to_string(),
            },
            4,
        );
        let c = p.push(Node::Const(LogicVec::from_u64(4, 3)), 4);
        let s = p.push(
            Node::Bin {
                op: IrBinOp::Add,
                a,
                b: c,
                signed: false,
            },
            4,
        );
        assert_eq!(p.width(s), 4);
        assert_eq!(p.len(), 3);
        assert_eq!(p.op_nodes(), vec![c, s]);
    }

    /// The visitor fingerprint must distinguish every checker pair the
    /// `Debug`-rendering oracle distinguishes (the retired cache-key
    /// scheme), across compiled golden checkers and IR mutants.
    #[test]
    fn fingerprint_tracks_the_debug_hash_oracle() {
        use rand::SeedableRng;
        /// The `Debug`-rendering oracle: FNV-1a over the rendering.
        fn debug_hash<T: std::fmt::Debug>(value: &T) -> u64 {
            correctbench_verilog::hash::fnv1a64(format!("{value:?}").as_bytes())
        }

        let srcs = [
            "module m(input [3:0] a, input [3:0] b, output [3:0] y);\nassign y = a + b;\nendmodule\n",
            "module m(input clk, input rst, output reg [3:0] q);\nalways @(posedge clk) begin if (rst) q <= 0; else q <= q + 1; end\nendmodule\n",
        ];
        let mut seen: std::collections::HashMap<Fingerprint, u64> =
            std::collections::HashMap::new();
        for src in srcs {
            let f = correctbench_verilog::parse(src).expect("parses");
            let golden = crate::compile_module(&f.modules[0]).expect("compiles");
            let mut variants = vec![golden.clone()];
            for seed in 0..6u64 {
                let mut prog = golden.clone();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                crate::mutate_ir(&mut prog, &mut rng, 1 + (seed as usize % 3));
                variants.push(prog);
            }
            for prog in variants {
                // Clones fingerprint identically; distinct programs must
                // not alias fingerprints the oracle separates.
                assert_eq!(prog.fingerprint(), prog.clone().fingerprint());
                let oracle = debug_hash(&prog);
                match seen.get(&prog.fingerprint()) {
                    None => {
                        seen.insert(prog.fingerprint(), oracle);
                    }
                    Some(prev) => assert_eq!(
                        *prev, oracle,
                        "fingerprint aliases checkers the oracle separates"
                    ),
                }
            }
        }
        assert!(seen.len() > 4, "mutation corpus unexpectedly degenerate");
    }
}
