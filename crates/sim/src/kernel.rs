//! The compiled, bit-parallel simulation kernel: 64·W stimulus vectors per
//! chunk of W machine words through the fabric model.
//!
//! The scalar path ([`crate::MultiDevice::step`]) interprets the mapped
//! netlist one bit at a time, resolving every LUT's plane through the
//! size-controller decoders on every cycle. Everything the
//! reproduction claims about functional correctness and fault coverage
//! multiplies thousands of cycles by that cost, so simulation throughput is
//! the binding constraint on how hard the architecture can be stressed.
//!
//! A [`CompiledKernel`] removes the interpretation entirely: per context,
//! the mapped netlist and the logic blocks' plane selection are lowered
//! *once* into a flat, levelized instruction stream (the emission order of
//! the mapped LUTs is already topological), with each instruction's truth
//! table folded into a packed `u64` mask read straight out of the MCMG-LUT
//! memory. Evaluation is generic over a chunk width `W`: every signal is a
//! `[u64; W]` chunk carrying **64·W independent stimulus vectors** — one bit
//! per lane — and every instruction is a handful of fixed-size array ops the
//! autovectorizer turns into vector code. The classic 64-lane path is
//! exactly the `W = 1` instantiation ([`CompiledKernel::step`] forwards to
//! [`CompiledKernel::step_wide`]), so chunk layouts, probe sampling, toggle
//! census, and lane-0 write-back are preserved bit-for-bit.
//!
//! How wide that vector code is depends on the instruction set it is
//! compiled for. The workspace builds for the target's baseline — SSE2 on
//! x86-64, where a `W = 8` chunk op becomes four 128-bit ops — so the
//! streaming loop behind [`crate::MultiDevice::run_throughput`] is compiled
//! three times: portable, with AVX2 (two 256-bit ops per `W = 8` chunk) and
//! with AVX-512F (one 512-bit op). The best level the host supports is
//! detected once at run time ([`kernel_isa`] names it); every level computes
//! the same integer ops, so outputs are bit-identical across levels. The
//! single-step entry points ([`CompiledKernel::step_wide`] and the observed
//! paths) stay portable.
//!
//! Every signal a step reads sits in one *signal file* of `W`-word chunks,
//! held by the [`KernelScratch`] and aligned to a 64-byte cache line:
//!
//! ```text
//! [ LUT results (n_instrs) | inputs (n_inputs) | registers (n_regs) | zero | all-ones ]
//! ```
//!
//! Building or optimizing a kernel resolves every operand, output and DFF
//! source to a `u32` slot in that file, so a step copies the inputs and
//! registers in and then reads every operand with one unconditional
//! `W`-word copy — no branch on the operand's kind. The LUT results stay
//! the aligned prefix of the file, which is what probes, the activity
//! census and toggle counting read.
//!
//! Lowering emits a constant-seeded mux-tree reduction over the packed
//! table (`2^k - 1` chunk-ops per k-input LUT). The kernel optimizer
//! ([`crate::optimize`], on by default via [`crate::KernelOptions`])
//! rewrites instructions into specialized opcodes (`Op`) — direct
//! AND/OR/XOR/NOT/BUF/MUX forms costing 1–4 chunk-ops — after constant
//! folding, dead-code and duplicate elimination. Optimization never changes
//! any lane of any output or register; it only changes the instruction
//! stream, which is why observability consumers that address LUT positions
//! (probes, the activity census, fault campaigns) always run on the
//! unoptimized stream.
//!
//! Lane semantics: lane `l` of every input, register, and output chunk is
//! one complete, independent stimulus stream (chunk word `l / 64`, bit
//! `l % 64`). Lane 0 is bit-for-bit identical to the scalar path given the
//! same stimulus; registers are carried per lane so sequential circuits
//! batch correctly. Context switches apply at chunk boundaries (all lanes
//! switch together), matching the equivalence checker's batched driver.
//!
//! Kernels are *configuration snapshots*: they must be rebuilt whenever LUT
//! memory mutates (fault injection via `flip_lut_bit`, reprogramming). The
//! device caches kernels per context against a configuration epoch; the
//! fault campaign instead clones a healthy kernel and flips the folded table
//! bit directly (`CompiledKernel::flip_table_bit`), which is equivalent
//! and keeps the campaign embarrassingly parallel.

use std::sync::OnceLock;

use mcfpga_map::MappedSource;

/// Stimulus vectors carried per machine word — one per bit lane. A width-`W`
/// chunk carries `LANES * W` vectors.
pub const LANES: usize = 64;

/// Chunk widths the runtime dispatcher instantiates. Powers of two up to a
/// 512-bit chunk (8 × u64: one AVX-512 register in the AVX-512 build of the
/// streaming loop, four SSE2 registers in the portable build).
pub const SUPPORTED_WIDTHS: &[usize] = &[1, 2, 4, 8];

/// Vector instruction-set level a build of the streaming loop targets.
/// Levels are ordered: a host that runs one runs every lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    /// The target's baseline instruction set (SSE2 on x86-64).
    Portable,
    /// AVX2: 256-bit integer ops.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F on top of AVX2: 512-bit integer ops.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every level this host can run, lowest first.
    pub(crate) fn supported() -> Vec<Isa> {
        #[allow(unused_mut)] // only x86-64 has levels above portable
        let mut levels = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            levels.push(Isa::Avx2);
            if is_x86_feature_detected!("avx512f") {
                levels.push(Isa::Avx512);
            }
        }
        levels
    }

    /// The best level this host can run, detected on first use.
    pub(crate) fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| {
            *Isa::supported()
                .last()
                .expect("the portable level is always supported")
        })
    }

    fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512f",
        }
    }
}

/// The vector instruction set the streaming runner
/// ([`crate::MultiDevice::run_throughput`]) uses on this host: `"avx512f"`,
/// `"avx2"`, or `"portable"` (the target's baseline). Detected once; the
/// choice changes speed only, never an output bit.
pub fn kernel_isa() -> &'static str {
    Isa::host().name()
}

/// A compact operand reference, resolved against the chunk-level state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Operand {
    /// Primary-input chunk `i`.
    Input(u32),
    /// Register chunk `r` (previous cycle's committed value).
    Register(u32),
    /// Result chunk of instruction `l` (strictly earlier in the stream).
    Lut(u32),
    /// Constant broadcast to every lane.
    Const(bool),
}

impl Operand {
    fn from_source(s: MappedSource) -> Operand {
        match s {
            MappedSource::Input(i) => Operand::Input(i as u32),
            MappedSource::Register(r) => Operand::Register(r as u32),
            MappedSource::Lut(l) => Operand::Lut(l as u32),
            MappedSource::Const(c) => Operand::Const(c),
        }
    }
}

/// How an instruction is evaluated. Lowering always emits [`Op::Table`] (the
/// generic mux-tree over the packed truth table); the optimizer pass rewrites
/// shapes it recognizes into the direct forms. The packed `table` stays
/// semantically valid alongside every specialized opcode — structural
/// hashing, fault flips, and idempotent re-optimization all key off it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    /// Generic mux-tree reduction over the packed table: `2^k - 1` chunk-ops.
    Table,
    /// Zero-operand constant: broadcast table bit 0.
    Const,
    /// `w = x0` (table `0b10`).
    Buf,
    /// `w = !x0` (table `0b01`).
    Not,
    /// Arbitrary 2-input function, 4-bit table over `(x0, x1)`: 1–2 chunk-ops
    /// for every non-degenerate shape.
    Logic2(u8),
    /// `w = sel ? b : a` with `ops = [a, b, sel]`.
    MuxSel2,
    /// 3-input majority.
    Maj3,
    /// AND of all operands, optionally inverted (AND/NAND chains of any k).
    AndAll { invert: bool },
    /// OR of all operands, optionally inverted (OR/NOR chains of any k).
    OrAll { invert: bool },
    /// XOR of all operands, optionally inverted (parity chains of any k).
    XorAll { invert: bool },
}

/// One levelized LUT instruction: up to 6 operands (the fabric's widest
/// mode) and the truth table folded into a `u64` mask, bit `a` = output for
/// address assignment `a` (operand 0 is the least-significant address bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct KernelInstr {
    pub(crate) ops: [Operand; 6],
    pub(crate) n_ops: u8,
    pub(crate) table: u64,
    pub(crate) op: Op,
}

impl KernelInstr {
    /// Chunk-ops this instruction costs per evaluated chunk — the optimizer's
    /// objective function and the bench's reported reduction metric.
    pub(crate) fn word_ops(&self) -> usize {
        let k = self.n_ops as usize;
        match self.op {
            Op::Table => {
                if k == 0 {
                    1
                } else {
                    (1 << k) - 1
                }
            }
            Op::Const | Op::Buf => 0,
            Op::Not => 1,
            Op::Logic2(t) => match t & 0xF {
                0b1000 | 0b1110 | 0b0110 => 1,
                _ => 2,
            },
            Op::MuxSel2 | Op::Maj3 => 4,
            Op::AndAll { invert } | Op::OrAll { invert } | Op::XorAll { invert } => {
                k - 1 + invert as usize
            }
        }
    }
}

/// `u64` words per 64-byte cache line.
const LINE_WORDS: usize = 8;

/// Reusable evaluation scratch: the *signal file* every operand load reads.
/// Creating one is cheap; reusing one across cycles makes stepping
/// allocation-free.
///
/// The file holds one `W`-word chunk per slot of the kernel it last
/// stepped, laid out `[LUT results | inputs | registers | zero | all-ones]`
/// (see [`CompiledKernel`]). Instruction `l`'s result occupies
/// `lut_words[l*W .. (l+1)*W]`, so at `W = 1` the LUT prefix is exactly one
/// word per LUT, which is what the toggle census and probe consumers index.
///
/// The file starts on a 64-byte boundary whatever address the allocator
/// returned, so a `W = 8` chunk is exactly one cache line and the kernel's
/// speed does not depend on the heap state left by earlier work.
#[derive(Debug, Default, Clone)]
pub struct KernelScratch {
    /// Backing store of the file, over-allocated by up to a cache line to
    /// leave room for the alignment.
    buf: Vec<u64>,
    /// Start of the aligned file within `buf`.
    off: usize,
    /// Words of LUT results at the front of the file.
    lut_len: usize,
}

impl KernelScratch {
    pub fn new() -> KernelScratch {
        KernelScratch::default()
    }

    /// Current-cycle result chunks, instruction-major (exposed
    /// crate-internally for toggle accounting and probe sampling).
    pub(crate) fn lut_words(&self) -> &[u64] {
        &self.buf[self.off..self.off + self.lut_len]
    }

    /// Size the file for one step of `kernel` at width `W` and fill every
    /// slot but the LUT results: inputs and registers from the caller, then
    /// the zero and all-ones chunks. LUT chunks are unspecified until the
    /// step writes them.
    #[inline(always)]
    fn load<const W: usize>(
        &mut self,
        kernel: &CompiledKernel,
        inputs: &[u64],
        regs: &[u64],
    ) -> &mut [u64] {
        assert_eq!(inputs.len(), kernel.n_inputs * W, "input word count");
        assert_eq!(regs.len(), kernel.n_regs * W, "register word count");
        let lut_len = kernel.instrs.len() * W;
        let len = kernel.n_slots() * W;
        self.buf.resize(len + LINE_WORDS - 1, 0);
        self.off = self.buf.as_ptr().align_offset(64).min(LINE_WORDS - 1);
        self.lut_len = lut_len;
        let file = &mut self.buf[self.off..self.off + len];
        let (ins, rest) = file[lut_len..].split_at_mut(inputs.len());
        ins.copy_from_slice(inputs);
        let (reg, consts) = rest.split_at_mut(regs.len());
        reg.copy_from_slice(regs);
        let (zero, ones) = consts.split_at_mut(W);
        zero.fill(0);
        ones.fill(!0);
        file
    }
}

/// A [`KernelInstr`] with its operands resolved to signal-file slots — the
/// form the evaluator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotInstr {
    table: u64,
    ops: [u32; 6],
    n_ops: u8,
    op: Op,
}

/// A context's netlist + configuration lowered to a flat instruction stream.
///
/// Every signal a step reads lives in one signal file (held by the
/// [`KernelScratch`]), one chunk per slot: instruction results at slots
/// `0..n_instrs`, then the primary inputs, then the registers, then a zero
/// and an all-ones chunk. Operands, outputs and DFF sources are resolved to
/// their slots once, when the kernel is built or optimized, so every load
/// in the step loop is one unconditional `W`-word copy.
///
/// `PartialEq` compares the full lowered form (instruction stream, output
/// and register taps) — two equal kernels are bit-for-bit interchangeable,
/// which is how the serving layer proves cache hits return the cold-compile
/// artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledKernel {
    pub(crate) n_inputs: usize,
    pub(crate) n_regs: usize,
    pub(crate) instrs: Vec<KernelInstr>,
    pub(crate) outputs: Vec<Operand>,
    pub(crate) dffs: Vec<Operand>,
    /// True once the optimizer pass has rewritten the stream. Optimized
    /// kernels compute identical lanes but their instruction positions no
    /// longer address mapped LUT positions — probes, census, and fault
    /// campaigns must use unoptimized kernels.
    pub(crate) optimized: bool,
    /// `instrs`, `outputs` and `dffs` resolved to signal-file slots.
    code: Vec<SlotInstr>,
    output_slots: Vec<u32>,
    dff_slots: Vec<u32>,
}

impl CompiledKernel {
    /// Lower a context: `luts` yields, in topological (emission) order, each
    /// LUT position's input sources and its packed truth table as currently
    /// held by the hardware model (so injected faults fold in naturally).
    pub fn build<'a>(
        n_inputs: usize,
        n_regs: usize,
        luts: impl Iterator<Item = (&'a [MappedSource], u64)>,
        outputs: impl Iterator<Item = MappedSource>,
        dffs: impl Iterator<Item = MappedSource>,
    ) -> CompiledKernel {
        let instrs = luts
            .map(|(srcs, table)| {
                assert!(srcs.len() <= 6, "LUT wider than the 6-input fabric mode");
                let mut ops = [Operand::Const(false); 6];
                for (slot, &s) in ops.iter_mut().zip(srcs) {
                    *slot = Operand::from_source(s);
                }
                KernelInstr {
                    ops,
                    n_ops: srcs.len() as u8,
                    table,
                    op: Op::Table,
                }
            })
            .collect();
        CompiledKernel::from_stream(
            n_inputs,
            n_regs,
            instrs,
            outputs.map(Operand::from_source).collect(),
            dffs.map(Operand::from_source).collect(),
            false,
        )
    }

    /// Assemble a kernel from an instruction stream, resolving every
    /// operand, output and DFF source to its signal-file slot.
    pub(crate) fn from_stream(
        n_inputs: usize,
        n_regs: usize,
        instrs: Vec<KernelInstr>,
        outputs: Vec<Operand>,
        dffs: Vec<Operand>,
        optimized: bool,
    ) -> CompiledKernel {
        assert_eq!(dffs.len(), n_regs, "one DFF source per register");
        let mut kernel = CompiledKernel {
            n_inputs,
            n_regs,
            instrs,
            outputs,
            dffs,
            optimized,
            code: Vec::new(),
            output_slots: Vec::new(),
            dff_slots: Vec::new(),
        };
        let zero = kernel.slot(Operand::Const(false));
        kernel.code = kernel
            .instrs
            .iter()
            .map(|instr| {
                let mut ops = [zero; 6];
                for (s, &op) in ops.iter_mut().zip(&instr.ops[..instr.n_ops as usize]) {
                    *s = kernel.slot(op);
                }
                SlotInstr {
                    table: instr.table,
                    ops,
                    n_ops: instr.n_ops,
                    op: instr.op,
                }
            })
            .collect();
        kernel.output_slots = kernel.outputs.iter().map(|&o| kernel.slot(o)).collect();
        kernel.dff_slots = kernel.dffs.iter().map(|&d| kernel.slot(d)).collect();
        kernel
    }

    /// The signal-file slot an operand reads.
    fn slot(&self, op: Operand) -> u32 {
        let inputs = self.instrs.len();
        let regs = inputs + self.n_inputs;
        let consts = regs + self.n_regs;
        let slot = match op {
            Operand::Lut(l) => l as usize,
            Operand::Input(i) => inputs + i as usize,
            Operand::Register(r) => regs + r as usize,
            Operand::Const(c) => consts + c as usize,
        };
        u32::try_from(slot).expect("signal file exceeds u32 slots")
    }

    /// Chunks in the signal file: results, inputs, registers, two constants.
    fn n_slots(&self) -> usize {
        self.instrs.len() + self.n_inputs + self.n_regs + 2
    }

    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    pub fn n_instrs(&self) -> usize {
        self.instrs.len()
    }

    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the optimizer pass has run on this kernel (see
    /// [`crate::KernelOptions`]).
    pub fn optimized(&self) -> bool {
        self.optimized
    }

    /// Total chunk-ops one step costs across the stream — the metric the
    /// optimizer shrinks and the bench reports before/after.
    pub fn word_ops(&self) -> usize {
        self.instrs.iter().map(|i| i.word_ops()).sum()
    }

    /// Flip one folded truth-table bit — the kernel-level image of
    /// `flip_lut_bit` on the position's active plane. Flips at assignments
    /// above the instruction's own address space (`2^n_ops`) are dormant,
    /// exactly as they are on the scalar path. The instruction falls back to
    /// the generic table evaluator: a specialized opcode no longer matches
    /// the mutated table. (In practice faults are only ever injected into
    /// unoptimized kernels, where every opcode is already `Table`.)
    pub(crate) fn flip_table_bit(&mut self, position: usize, assignment: usize) {
        let instr = &mut self.instrs[position];
        instr.table ^= 1u64 << assignment;
        instr.op = Op::Table;
        self.code[position].table = instr.table;
        self.code[position].op = Op::Table;
    }

    /// One clock edge over 64 lanes: the `W = 1` instantiation of
    /// [`CompiledKernel::step_wide`], kept as the canonical narrow path.
    pub fn step(
        &self,
        inputs: &[u64],
        regs: &mut [u64],
        scratch: &mut KernelScratch,
        out: &mut Vec<u64>,
    ) {
        self.step_wide::<1>(inputs, regs, scratch, out);
    }

    /// One clock edge over `64 * W` lanes: evaluate every instruction,
    /// derive the output chunks, and commit the next register chunks.
    ///
    /// All buffers are chunk-flattened and signal-major: `inputs` holds
    /// `n_inputs * W` words (`inputs[i*W + w]` = word `w` of input `i`),
    /// `regs` holds `n_regs * W` words, and `out` is cleared and refilled
    /// with `n_outputs * W` words. No allocation happens after the scratch's
    /// first use.
    pub fn step_wide<const W: usize>(
        &self,
        inputs: &[u64],
        regs: &mut [u64],
        scratch: &mut KernelScratch,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        out.resize(self.output_slots.len() * W, 0);
        self.step_into::<W>(inputs, regs, scratch, out);
    }

    /// [`CompiledKernel::step_wide`] writing the `n_outputs * W` output
    /// words into `out`, which must be exactly that long. Always inlined, so
    /// each build of [`stream_chunks`] compiles it for its own [`Isa`].
    #[inline(always)]
    fn step_into<const W: usize>(
        &self,
        inputs: &[u64],
        regs: &mut [u64],
        scratch: &mut KernelScratch,
        out: &mut [u64],
    ) {
        let file = scratch.load::<W>(self, inputs, regs);
        let mut mux = [[0u64; W]; 32];
        for (i, instr) in self.code.iter().enumerate() {
            let c = eval::<W>(instr, file, &mut mux);
            file[i * W..][..W].copy_from_slice(&c);
        }
        for (o, &s) in out.chunks_exact_mut(W).zip(&self.output_slots) {
            o.copy_from_slice(&chunk::<W>(file, s));
        }
        self.commit::<W>(file, regs);
    }

    /// Step every chunk of `stimulus` at vector level `isa`, starting from
    /// `regs` and leaving the final registers there. `stimulus` is
    /// chunk-major, `n_inputs * W` words per chunk; each step's
    /// `n_outputs * W` output words land at their place in `out`.
    ///
    /// Panics if the host cannot run `isa` (see [`Isa::host`]), the kernel
    /// has no inputs, or a buffer is not a whole number of chunks long.
    #[allow(unsafe_code)]
    pub(crate) fn stream_wide<const W: usize>(
        &self,
        isa: Isa,
        stimulus: &[u64],
        regs: &mut [u64],
        scratch: &mut KernelScratch,
        out: &mut [u64],
    ) {
        assert!(isa <= Isa::host(), "host cannot run {}", isa.name());
        let in_words = self.n_inputs * W;
        assert!(in_words > 0, "a stream is counted in input chunks");
        let n_chunks = stimulus.len() / in_words;
        assert_eq!(stimulus.len(), n_chunks * in_words, "stimulus word count");
        assert_eq!(
            out.len(),
            n_chunks * self.n_outputs() * W,
            "output word count"
        );
        match isa {
            Isa::Portable => stream_chunks::<W>(self, stimulus, regs, scratch, out),
            // SAFETY: `isa <= Isa::host()` was asserted above, and
            // `Isa::supported` yields `Avx2` or higher only after
            // `is_x86_feature_detected!("avx2")` held on this CPU.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { stream_chunks_avx2::<W>(self, stimulus, regs, scratch, out) },
            // SAFETY: `isa <= Isa::host()` was asserted above, and
            // `Isa::supported` yields `Avx512` only after both
            // `is_x86_feature_detected!("avx2")` and
            // `is_x86_feature_detected!("avx512f")` held on this CPU.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { stream_chunks_avx512::<W>(self, stimulus, regs, scratch, out) },
        }
    }

    /// Per-instruction mask of the registers' transitive fanin cone — the
    /// instructions [`CompiledKernel::step_state_cone_wide`] must evaluate
    /// to advance register state without producing outputs. The stream is
    /// topological, so one reverse sweep closes the cone.
    pub(crate) fn state_cone(&self) -> Vec<bool> {
        let mut needed = vec![false; self.instrs.len()];
        for &d in &self.dffs {
            if let Operand::Lut(l) = d {
                needed[l as usize] = true;
            }
        }
        for i in (0..self.instrs.len()).rev() {
            if needed[i] {
                let instr = &self.instrs[i];
                for &op in &instr.ops[..instr.n_ops as usize] {
                    if let Operand::Lut(l) = op {
                        needed[l as usize] = true;
                    }
                }
            }
        }
        needed
    }

    /// Advance only the register state by one edge, evaluating just the
    /// instructions in `cone` (from [`CompiledKernel::state_cone`]). Used as
    /// the sequential prologue that seeds word-block-parallel throughput
    /// runs: the cone is closed under operand references, so skipped
    /// instructions are never read.
    pub(crate) fn step_state_cone_wide<const W: usize>(
        &self,
        cone: &[bool],
        inputs: &[u64],
        regs: &mut [u64],
        scratch: &mut KernelScratch,
    ) {
        debug_assert_eq!(cone.len(), self.instrs.len());
        let file = scratch.load::<W>(self, inputs, regs);
        let mut mux = [[0u64; W]; 32];
        for (i, (instr, &live)) in self.code.iter().zip(cone).enumerate() {
            if live {
                let c = eval::<W>(instr, file, &mut mux);
                file[i * W..][..W].copy_from_slice(&c);
            }
        }
        self.commit::<W>(file, regs);
    }

    /// Write every DFF source's chunk to its register. The file still holds
    /// the pre-edge registers, so a DFF that reads another register sees
    /// its *old* value.
    #[inline(always)]
    fn commit<const W: usize>(&self, file: &[u64], regs: &mut [u64]) {
        for (r, &s) in regs.chunks_exact_mut(W).zip(&self.dff_slots) {
            r.copy_from_slice(&chunk::<W>(file, s));
        }
    }
}

/// The streaming loop behind [`CompiledKernel::stream_wide`]: one
/// [`CompiledKernel::step_into`] per chunk, each writing its outputs in
/// place. Every helper it reaches is `#[inline(always)]`, so each
/// `#[target_feature]` wrapper below compiles the whole step for its ISA.
#[inline(always)]
fn stream_chunks<const W: usize>(
    kernel: &CompiledKernel,
    stimulus: &[u64],
    regs: &mut [u64],
    scratch: &mut KernelScratch,
    out: &mut [u64],
) {
    let in_words = kernel.n_inputs * W;
    let out_words = kernel.output_slots.len() * W;
    for t in 0..stimulus.len() / in_words {
        kernel.step_into::<W>(
            &stimulus[t * in_words..][..in_words],
            regs,
            scratch,
            &mut out[t * out_words..][..out_words],
        );
    }
}

/// [`stream_chunks`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn stream_chunks_avx2<const W: usize>(
    kernel: &CompiledKernel,
    stimulus: &[u64],
    regs: &mut [u64],
    scratch: &mut KernelScratch,
    out: &mut [u64],
) {
    stream_chunks::<W>(kernel, stimulus, regs, scratch, out);
}

/// [`stream_chunks`] compiled with AVX2 and AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f")]
fn stream_chunks_avx512<const W: usize>(
    kernel: &CompiledKernel,
    stimulus: &[u64],
    regs: &mut [u64],
    scratch: &mut KernelScratch,
    out: &mut [u64],
) {
    stream_chunks::<W>(kernel, stimulus, regs, scratch, out);
}

/// One slot's `W`-word chunk: a fixed-size copy, as many vector loads as
/// the build's register width needs.
#[inline(always)]
fn chunk<const W: usize>(file: &[u64], slot: u32) -> [u64; W] {
    let mut c = [0u64; W];
    c.copy_from_slice(&file[slot as usize * W..][..W]);
    c
}

#[inline(always)]
fn map1<const W: usize>(a: [u64; W], f: impl Fn(u64) -> u64) -> [u64; W] {
    let mut o = [0u64; W];
    for (ow, &aw) in o.iter_mut().zip(&a) {
        *ow = f(aw);
    }
    o
}

#[inline(always)]
fn zip2<const W: usize>(a: [u64; W], b: [u64; W], f: impl Fn(u64, u64) -> u64) -> [u64; W] {
    let mut o = [0u64; W];
    for (i, ow) in o.iter_mut().enumerate() {
        *ow = f(a[i], b[i]);
    }
    o
}

#[inline(always)]
fn zip3<const W: usize>(
    a: [u64; W],
    b: [u64; W],
    c: [u64; W],
    f: impl Fn(u64, u64, u64) -> u64,
) -> [u64; W] {
    let mut o = [0u64; W];
    for (i, ow) in o.iter_mut().enumerate() {
        *ow = f(a[i], b[i], c[i]);
    }
    o
}

/// The constant chunk a zero-operand table broadcasts.
#[inline(always)]
fn constant<const W: usize>(table: u64) -> [u64; W] {
    if table & 1 == 1 {
        [!0u64; W]
    } else {
        [0u64; W]
    }
}

/// Evaluate one instruction across all `64 * W` lanes.
#[inline(always)]
fn eval<const W: usize>(instr: &SlotInstr, file: &[u64], mux: &mut [[u64; W]; 32]) -> [u64; W] {
    let ld = |j: usize| chunk::<W>(file, instr.ops[j]);
    match instr.op {
        Op::Table => eval_table::<W>(instr, file, mux),
        Op::Const => constant::<W>(instr.table),
        Op::Buf => ld(0),
        Op::Not => map1(ld(0), |a| !a),
        Op::Logic2(t) => eval_logic2::<W>(t, ld(0), ld(1)),
        Op::MuxSel2 => zip3(ld(0), ld(1), ld(2), |a, b, s| (a & !s) | (b & s)),
        Op::Maj3 => zip3(ld(0), ld(1), ld(2), |a, b, c| (a & b) | ((a | b) & c)),
        Op::AndAll { invert } => fold_all::<W>(instr, invert, file, |a, b| a & b),
        Op::OrAll { invert } => fold_all::<W>(instr, invert, file, |a, b| a | b),
        Op::XorAll { invert } => fold_all::<W>(instr, invert, file, |a, b| a ^ b),
    }
}

#[inline(always)]
fn fold_all<const W: usize>(
    instr: &SlotInstr,
    invert: bool,
    file: &[u64],
    f: impl Fn(u64, u64) -> u64,
) -> [u64; W] {
    let mut acc = chunk::<W>(file, instr.ops[0]);
    for &s in &instr.ops[1..instr.n_ops as usize] {
        let x = chunk::<W>(file, s);
        for (aw, &xw) in acc.iter_mut().zip(&x) {
            *aw = f(*aw, xw);
        }
    }
    if invert {
        for aw in &mut acc {
            *aw = !*aw;
        }
    }
    acc
}

/// Direct 2-input evaluation: one chunk-op for AND/OR/XOR, two for the
/// inverted and asymmetric shapes, with a sum-of-minterms fallback keeping
/// the opcode total for degenerate tables (which the optimizer never emits).
#[inline(always)]
fn eval_logic2<const W: usize>(t: u8, a: [u64; W], b: [u64; W]) -> [u64; W] {
    match t & 0xF {
        0b1000 => zip2(a, b, |a, b| a & b),
        0b1110 => zip2(a, b, |a, b| a | b),
        0b0110 => zip2(a, b, |a, b| a ^ b),
        0b0111 => zip2(a, b, |a, b| !(a & b)),
        0b0001 => zip2(a, b, |a, b| !(a | b)),
        0b1001 => zip2(a, b, |a, b| !(a ^ b)),
        0b0010 => zip2(a, b, |a, b| a & !b),
        0b0100 => zip2(a, b, |a, b| !a & b),
        0b1011 => zip2(a, b, |a, b| a | !b),
        0b1101 => zip2(a, b, |a, b| !a | b),
        t => zip2(a, b, move |a, b| {
            let mut w = 0u64;
            if t & 1 != 0 {
                w |= !a & !b;
            }
            if t & 2 != 0 {
                w |= a & !b;
            }
            if t & 4 != 0 {
                w |= !a & b;
            }
            if t & 8 != 0 {
                w |= a & b;
            }
            w
        }),
    }
}

/// Generic table evaluation: seed `2^(k-1)` chunks from the constant table
/// paired with operand 0, then fold the remaining k-1 operands mux-style.
/// Total cost `2^k - 1` chunk-muxes — about one bit-op per lane per LUT.
#[inline(always)]
fn eval_table<const W: usize>(
    instr: &SlotInstr,
    file: &[u64],
    mux: &mut [[u64; W]; 32],
) -> [u64; W] {
    let k = instr.n_ops as usize;
    if k == 0 {
        return constant::<W>(instr.table);
    }
    let x0 = chunk::<W>(file, instr.ops[0]);
    let half = 1usize << (k - 1);
    for (a, slot) in mux.iter_mut().enumerate().take(half) {
        // Table bits (2a, 2a+1) are the outputs for x0 = 0 / 1 under the
        // remaining address bits `a`; with constant table bits the first mux
        // level collapses to one of four chunks.
        match (instr.table >> (2 * a)) & 3 {
            0 => *slot = [0u64; W],
            1 => {
                for (sw, &xw) in slot.iter_mut().zip(&x0) {
                    *sw = !xw;
                }
            }
            2 => *slot = x0,
            _ => *slot = [!0u64; W],
        }
    }
    let mut width = half;
    for &s in &instr.ops[1..k] {
        let xj = chunk::<W>(file, s);
        width >>= 1;
        for a in 0..width {
            let (lo, hi) = (mux[2 * a], mux[2 * a + 1]);
            for (w, slot) in mux[a].iter_mut().enumerate() {
                *slot = (lo[w] & !xj[w]) | (hi[w] & xj[w]);
            }
        }
    }
    mux[0]
}

/// Broadcast a bool slice into lane-parallel words (every lane equal).
pub(crate) fn broadcast(bits: &[bool], words: &mut Vec<u64>) {
    broadcast_wide(bits, words, 1);
}

/// Broadcast a bool slice into `W`-word chunks (every lane of every word of
/// each signal's chunk equal).
pub(crate) fn broadcast_wide(bits: &[bool], words: &mut Vec<u64>, w: usize) {
    words.clear();
    for &b in bits {
        let word = if b { !0u64 } else { 0 };
        words.extend(std::iter::repeat_n(word, w));
    }
}

/// Extract lane `lane` of 1-word-per-signal `words` into a bool buffer.
pub(crate) fn extract_lane(words: &[u64], lane: usize, bits: &mut [bool]) {
    extract_lane_wide(words, 1, lane, bits);
}

/// Extract lane `lane` (of `64 * w`) from `w`-word chunks into a bool buffer.
pub(crate) fn extract_lane_wide(words: &[u64], w: usize, lane: usize, bits: &mut [bool]) {
    debug_assert_eq!(words.len(), bits.len() * w);
    debug_assert!(lane < LANES * w);
    let (word, bit) = (lane / LANES, lane % LANES);
    for (i, b) in bits.iter_mut().enumerate() {
        *b = (words[i * w + word] >> bit) & 1 == 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kernel of one instruction over `n_ops` primary inputs, with the
    /// instruction's result as its only output.
    fn one_instr_kernel(n_ops: u8, table: u64, op: Op) -> CompiledKernel {
        let mut ops = [Operand::Const(false); 6];
        for (i, o) in ops.iter_mut().enumerate().take(n_ops as usize) {
            *o = Operand::Input(i as u32);
        }
        let instr = KernelInstr {
            ops,
            n_ops,
            table,
            op,
        };
        CompiledKernel::from_stream(
            n_ops as usize,
            0,
            vec![instr],
            vec![Operand::Lut(0)],
            vec![],
            false,
        )
    }

    /// The output word of one 64-lane step of [`one_instr_kernel`].
    fn eval_one(n_ops: u8, table: u64, op: Op, inputs: &[u64]) -> u64 {
        let kernel = one_instr_kernel(n_ops, table, op);
        let mut out = Vec::new();
        kernel.step(
            &inputs[..n_ops as usize],
            &mut [],
            &mut KernelScratch::new(),
            &mut out,
        );
        out[0]
    }

    #[test]
    fn mux_tree_matches_direct_table_lookup() {
        // Every 3-input table, every address, on a lane-striped stimulus.
        // Lane l drives address l % 8.
        let mut inputs = [0u64; 3];
        for lane in 0..LANES {
            let a = lane % 8;
            for (i, w) in inputs.iter_mut().enumerate() {
                *w |= (((a >> i) & 1) as u64) << lane;
            }
        }
        for table in 0..256u64 {
            let w = eval_one(3, table, Op::Table, &inputs);
            for lane in 0..LANES {
                let a = lane % 8;
                assert_eq!(
                    (w >> lane) & 1 == 1,
                    (table >> a) & 1 == 1,
                    "table {table:#x} address {a}"
                );
            }
        }
    }

    #[test]
    fn zero_input_instruction_broadcasts_its_constant() {
        for (table, want) in [(0u64, 0u64), (1, !0)] {
            assert_eq!(eval_one(0, table, Op::Table, &[]), want);
            assert_eq!(eval_one(0, table, Op::Const, &[]), want);
        }
    }

    #[test]
    fn wide_step_matches_word_by_word_narrow_steps() {
        // A small sequential kernel: r' = lut0 = in0 XOR r; out = lut1 = !lut0.
        let kernel = CompiledKernel::build(
            1,
            1,
            [
                (
                    &[MappedSource::Input(0), MappedSource::Register(0)][..],
                    0b0110u64,
                ),
                (&[MappedSource::Lut(0)][..], 0b01u64),
            ]
            .into_iter(),
            std::iter::once(MappedSource::Lut(1)),
            std::iter::once(MappedSource::Lut(0)),
        );
        const W: usize = 4;
        let stim: [u64; W] = [
            0xDEAD_BEEF_0123_4567,
            0x0F0F_1234_ABCD_8765,
            !0,
            0x8000_0000_0000_0001,
        ];
        // Wide: one step over all four words.
        let mut wide_regs = vec![0u64; W];
        let mut wide_scratch = KernelScratch::new();
        let mut wide_out = Vec::new();
        kernel.step_wide::<W>(&stim, &mut wide_regs, &mut wide_scratch, &mut wide_out);
        // Narrow: four independent 64-lane steps (lanes are independent
        // streams, so word w of the wide run is its own narrow run).
        for (w, &word) in stim.iter().enumerate() {
            let mut regs = vec![0u64];
            let mut scratch = KernelScratch::new();
            let mut out = Vec::new();
            kernel.step(&[word], &mut regs, &mut scratch, &mut out);
            assert_eq!(wide_out[w], out[0], "output word {w}");
            assert_eq!(wide_regs[w], regs[0], "register word {w}");
        }
    }

    #[test]
    fn specialized_opcodes_match_their_tables() {
        // For each specialized opcode/table pair, the direct evaluator must
        // agree with the generic mux-tree on dense random-ish stimulus.
        let x = [
            0xDEAD_BEEF_CAFE_F00Du64,
            0x0123_4567_89AB_CDEF,
            0xF0F0_F0F0_0F0F_0F0F,
        ];
        let cases: Vec<(Op, u8, u64)> = vec![
            (Op::Buf, 1, 0b10),
            (Op::Not, 1, 0b01),
            (Op::MuxSel2, 3, 0b1100_1010), // sel ? b : a
            (Op::Maj3, 3, 0b1110_1000),
            (Op::AndAll { invert: false }, 3, 0x80),
            (Op::AndAll { invert: true }, 3, 0x7F),
            (Op::OrAll { invert: false }, 3, 0xFE),
            (Op::OrAll { invert: true }, 3, 0x01),
            (Op::XorAll { invert: false }, 3, 0b1001_0110),
            (Op::XorAll { invert: true }, 3, 0b0110_1001),
        ];
        for (op, n_ops, table) in cases {
            let want = eval_one(n_ops, table, Op::Table, &x);
            let got = eval_one(n_ops, table, op, &x);
            assert_eq!(got, want, "{op:?} table {table:#x}");
        }
        // Every 2-input table through Logic2.
        for table in 0..16u64 {
            let want = eval_one(2, table, Op::Table, &x);
            let got = eval_one(2, table, Op::Logic2(table as u8), &x);
            assert_eq!(got, want, "Logic2 table {table:#x}");
        }
    }

    /// Step `kernel` a few cycles at width `W` and check every word of every
    /// output and register chunk against its own width-1 run. One scratch
    /// serves both widths, so the signal file is re-laid-out every step.
    fn matches_narrow_steps<const W: usize>(kernel: &CompiledKernel) {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state ^ (state >> 29)
        };
        let (n_in, n_regs) = (kernel.n_inputs(), kernel.n_regs());
        let column = |buf: &[u64], w: usize| -> Vec<u64> {
            buf.iter().skip(w).step_by(W).copied().collect()
        };
        let mut wide_regs: Vec<u64> = (0..n_regs * W).map(|_| next()).collect();
        let mut narrow_regs: Vec<Vec<u64>> = (0..W).map(|w| column(&wide_regs, w)).collect();
        let mut scratch = KernelScratch::new();
        let (mut wide_out, mut out) = (Vec::new(), Vec::new());
        for cycle in 0..4 {
            let inputs: Vec<u64> = (0..n_in * W).map(|_| next()).collect();
            kernel.step_wide::<W>(&inputs, &mut wide_regs, &mut scratch, &mut wide_out);
            for (w, regs) in narrow_regs.iter_mut().enumerate() {
                kernel.step(&column(&inputs, w), regs, &mut scratch, &mut out);
                assert_eq!(column(&wide_out, w), out, "W={W} cycle {cycle} word {w}");
                assert_eq!(&column(&wide_regs, w), regs, "W={W} cycle {cycle} word {w}");
            }
        }
    }

    #[test]
    fn taps_read_inputs_registers_and_constants_directly() {
        // Outputs and DFF sources that bypass the LUTs read the input,
        // register and constant regions of the signal file:
        // out = [in1, r0, 1, 0, in0 ^ r2]; r0' = in0, r1' = 1, r2' = r0.
        let kernel = CompiledKernel::build(
            2,
            3,
            std::iter::once((
                &[MappedSource::Input(0), MappedSource::Register(2)][..],
                0b0110u64,
            )),
            [
                MappedSource::Input(1),
                MappedSource::Register(0),
                MappedSource::Const(true),
                MappedSource::Const(false),
                MappedSource::Lut(0),
            ]
            .into_iter(),
            [
                MappedSource::Input(0),
                MappedSource::Const(true),
                MappedSource::Register(0),
            ]
            .into_iter(),
        );
        let (a, b) = (0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210u64);
        let (r0, r1, r2) = (0xAAAA_0000_FFFF_5555u64, 0x1234u64, 0xF0F0_F0F0u64);
        for kernel in [kernel.clone(), kernel.optimize()] {
            let mut regs = vec![r0, r1, r2];
            let mut out = Vec::new();
            kernel.step(&[a, b], &mut regs, &mut KernelScratch::new(), &mut out);
            assert_eq!(
                out,
                vec![b, r0, !0, 0, a ^ r2],
                "optimized: {}",
                kernel.optimized()
            );
            assert_eq!(regs, vec![a, !0, r0], "optimized: {}", kernel.optimized());
            for &w in SUPPORTED_WIDTHS {
                match w {
                    1 => matches_narrow_steps::<1>(&kernel),
                    2 => matches_narrow_steps::<2>(&kernel),
                    4 => matches_narrow_steps::<4>(&kernel),
                    8 => matches_narrow_steps::<8>(&kernel),
                    _ => unreachable!("width {w} has no instantiation here"),
                }
            }
        }
    }

    #[test]
    fn registers_commit_after_sources_are_read() {
        // Two registers swapping each cycle: r0' = r1, r1' = r0. If commit
        // were interleaved, both would collapse to one value.
        let kernel = CompiledKernel::build(
            0,
            2,
            std::iter::empty(),
            std::iter::empty(),
            [MappedSource::Register(1), MappedSource::Register(0)].into_iter(),
        );
        let mut regs = vec![0xAAAA_AAAA_AAAA_AAAAu64, 0x5555_5555_5555_5555];
        let mut scratch = KernelScratch::new();
        let mut out = Vec::new();
        kernel.step(&[], &mut regs, &mut scratch, &mut out);
        assert_eq!(regs[0], 0x5555_5555_5555_5555);
        assert_eq!(regs[1], 0xAAAA_AAAA_AAAA_AAAA);
    }

    #[test]
    fn state_cone_prologue_advances_registers_like_a_full_step() {
        // out-cone LUT 1 is not needed to advance the register; the cone
        // step must still commit the same next state as a full step.
        let kernel = CompiledKernel::build(
            1,
            1,
            [
                (
                    &[MappedSource::Input(0), MappedSource::Register(0)][..],
                    0b0110u64,
                ),
                (&[MappedSource::Lut(0)][..], 0b01u64),
            ]
            .into_iter(),
            std::iter::once(MappedSource::Lut(1)),
            std::iter::once(MappedSource::Lut(0)),
        );
        let cone = kernel.state_cone();
        assert_eq!(cone, vec![true, false]);
        let stim = [0x1234_5678_9ABC_DEF0u64];
        let mut full_regs = vec![0xAAAAu64];
        let mut cone_regs = full_regs.clone();
        let mut s1 = KernelScratch::new();
        let mut s2 = KernelScratch::new();
        let mut out = Vec::new();
        kernel.step(&stim, &mut full_regs, &mut s1, &mut out);
        kernel.step_state_cone_wide::<1>(&cone, &stim, &mut cone_regs, &mut s2);
        assert_eq!(cone_regs, full_regs);
    }

    #[test]
    fn fault_flip_changes_only_the_addressed_assignment() {
        let mut kernel = CompiledKernel::build(
            2,
            0,
            std::iter::once((
                &[MappedSource::Input(0), MappedSource::Input(1)][..],
                0b0110u64, // XOR
            )),
            std::iter::once(MappedSource::Lut(0)),
            std::iter::empty(),
        );
        kernel.flip_table_bit(0, 3);
        let mut scratch = KernelScratch::new();
        let mut out = Vec::new();
        // Lane a drives address a.
        let inputs = [0b0010u64 | (0b1000), 0b1100u64];
        kernel.step(&inputs, &mut [], &mut scratch, &mut out);
        // XOR with bit 3 flipped: 0, 1, 1, 1 over addresses 0..4.
        for (lane, want) in [(0usize, false), (1, true), (2, true), (3, true)] {
            assert_eq!((out[0] >> lane) & 1 == 1, want, "lane {lane}");
        }
    }

    #[test]
    fn lane_helpers_round_trip_at_width() {
        let bits = [true, false, true, true];
        for w in [1usize, 2, 4] {
            let mut words = Vec::new();
            broadcast_wide(&bits, &mut words, w);
            assert_eq!(words.len(), bits.len() * w);
            for lane in [0usize, 1, 63, 64 * w - 1] {
                let mut got = [false; 4];
                extract_lane_wide(&words, w, lane, &mut got);
                assert_eq!(got, bits, "width {w} lane {lane}");
            }
        }
    }
}
