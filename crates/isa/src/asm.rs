//! Two-pass assembler for the RSE guest ISA.
//!
//! Supports labels, `.text`/`.data` sections, data directives, numeric and
//! symbolic operands, and a handful of pseudo-instructions. This is how
//! the workloads of the evaluation (vpr-like kernels, k-means, the MLR
//! microbenchmarks, the multithreaded server) are produced.
//!
//! # Syntax
//!
//! ```text
//!         .text                   # switch to text section (optional addr)
//! main:   li   r4, 100000        # pseudo: load 32-bit immediate
//!         la   r5, buffer        # pseudo: load address of label
//! loop:   lw   r6, 0(r5)
//!         addi r4, r4, -1
//!         bne  r4, r0, loop
//!         chk  icm, blk, 2, 0    # CHECK instruction (module, blk, op, param)
//!         halt
//!         .data
//! buffer: .word 1, 2, 3
//!         .space 64
//! msg:    .asciiz "hello"
//! ```
//!
//! Comments run from `#` or `;` to end of line. Immediates are decimal or
//! `0x` hexadecimal; symbol operands may carry a `+N`/`-N` offset.

use crate::chk::{ChkSpec, ModuleId};
use crate::image::Image;
use crate::{encode, layout, Inst, Reg, INST_BYTES};
use std::collections::BTreeMap;
use std::fmt;

/// Error produced by the assembler, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Description of the problem.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// Assembles source text into an [`Image`] at the default layout bases.
///
/// The entry point is the `main` label if defined, otherwise the start of
/// the text segment.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered (unknown mnemonic, undefined
/// label, out-of-range operand, …).
pub fn assemble(source: &str) -> Result<Image, AsmError> {
    assemble_at(source, layout::TEXT_BASE, layout::DATA_BASE)
}

/// Assembles source text with explicit text/data base addresses.
///
/// # Errors
///
/// See [`assemble`].
pub fn assemble_at(source: &str, text_base: u32, data_base: u32) -> Result<Image, AsmError> {
    let items = parse(source)?;
    let symbols = layout_pass(&items, text_base, data_base)?;
    emit_pass(&items, &symbols, text_base, data_base)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SectionKind {
    Text,
    Data,
}

#[derive(Debug, Clone)]
enum Item {
    Label(String),
    Section(SectionKind),
    Word(Vec<Operand>),
    Half(Vec<Operand>),
    Byte(Vec<Operand>),
    Space(u32),
    Align(u32),
    Asciiz(String),
    Inst {
        mnemonic: String,
        operands: Vec<Operand>,
        line: usize,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    Reg(Reg),
    Imm(i64),
    /// A symbol reference with an additive offset: `label+8`.
    Sym(String, i64),
    /// Memory operand `off(base)`.
    Mem {
        off: Box<Operand>,
        base: Reg,
    },
    /// A bare word (module names, `blk`/`nblk`).
    Word(String),
}

struct Line {
    no: usize,
    items: Vec<Item>,
}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError {
        line,
        msg: msg.into(),
    }
}

fn parse(source: &str) -> Result<Vec<Line>, AsmError> {
    let mut lines = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let no = idx + 1;
        let text = raw.split(['#', ';']).next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut items = Vec::new();
        let mut rest = text;
        // Leading labels (possibly several).
        while let Some(colon) = rest.find(':') {
            let (head, tail) = rest.split_at(colon);
            let name = head.trim();
            if name.is_empty() || !is_ident(name) {
                break;
            }
            items.push(Item::Label(name.to_string()));
            rest = tail[1..].trim_start();
        }
        if !rest.is_empty() {
            items.push(parse_statement(rest, no)?);
        }
        lines.push(Line { no, items });
    }
    Ok(lines)
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn parse_statement(text: &str, no: usize) -> Result<Item, AsmError> {
    if let Some(directive) = text.strip_prefix('.') {
        let (name, args) = split_mnemonic(directive);
        return match name.as_str() {
            "text" => Ok(Item::Section(SectionKind::Text)),
            "data" => Ok(Item::Section(SectionKind::Data)),
            "word" => Ok(Item::Word(parse_operands(args, no)?)),
            "half" => Ok(Item::Half(parse_operands(args, no)?)),
            "byte" => Ok(Item::Byte(parse_operands(args, no)?)),
            "space" => {
                let n = parse_int(args.trim()).ok_or_else(|| err(no, "bad .space size"))?;
                u32::try_from(n)
                    .map(Item::Space)
                    .map_err(|_| err(no, "negative .space size"))
            }
            "align" => {
                let n = parse_int(args.trim()).ok_or_else(|| err(no, "bad .align argument"))?;
                u32::try_from(n)
                    .map(Item::Align)
                    .map_err(|_| err(no, "negative .align"))
            }
            "asciiz" => {
                let s = args.trim();
                let inner = s
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| err(no, ".asciiz expects a quoted string"))?;
                Ok(Item::Asciiz(unescape(inner)))
            }
            "global" | "globl" => Ok(Item::Align(0)), // accepted and ignored
            other => Err(err(no, format!("unknown directive .{other}"))),
        };
    }
    let (mnemonic, args) = split_mnemonic(text);
    let operands = parse_operands(args, no)?;
    Ok(Item::Inst {
        mnemonic,
        operands,
        line: no,
    })
}

fn split_mnemonic(text: &str) -> (String, &str) {
    match text.find(char::is_whitespace) {
        Some(i) => (text[..i].to_ascii_lowercase(), &text[i..]),
        None => (text.to_ascii_lowercase(), ""),
    }
}

fn parse_operands(args: &str, no: usize) -> Result<Vec<Operand>, AsmError> {
    let args = args.trim();
    if args.is_empty() {
        return Ok(Vec::new());
    }
    args.split(',')
        .map(|tok| parse_operand(tok.trim(), no))
        .collect()
}

fn parse_operand(tok: &str, no: usize) -> Result<Operand, AsmError> {
    if tok.is_empty() {
        return Err(err(no, "empty operand"));
    }
    // Memory operand off(base)?
    if let Some(open) = tok.find('(') {
        if let Some(close) = tok.rfind(')') {
            let base: Reg = tok
                .get(open + 1..close)
                .ok_or_else(|| err(no, format!("malformed memory operand `{tok}`")))?
                .trim()
                .parse()
                .map_err(|e| err(no, format!("{e}")))?;
            let off_text = tok[..open].trim();
            let off = if off_text.is_empty() {
                Operand::Imm(0)
            } else {
                parse_operand(off_text, no)?
            };
            return Ok(Operand::Mem {
                off: Box::new(off),
                base,
            });
        }
    }
    if let Ok(r) = tok.parse::<Reg>() {
        return Ok(Operand::Reg(r));
    }
    if let Some(v) = parse_int(tok) {
        return Ok(Operand::Imm(v));
    }
    // Symbol with optional +N / -N offset.
    if let Some(plus) = tok.get(1..).and_then(|t| t.find(['+', '-'])).map(|i| i + 1) {
        let (sym, off_text) = tok.split_at(plus);
        if is_ident(sym.trim()) {
            if let Some(off) = parse_int(off_text) {
                return Ok(Operand::Sym(sym.trim().to_string(), off));
            }
        }
    }
    if is_ident(tok) {
        return Ok(Operand::Word(tok.to_string()));
    }
    Err(err(no, format!("cannot parse operand `{tok}`")))
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(&hex.replace('_', ""), 16).ok()?
    } else if let Some(bin) = body.strip_prefix("0b") {
        i64::from_str_radix(&bin.replace('_', ""), 2).ok()?
    } else {
        body.replace('_', "").parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('0') => out.push('\0'),
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Number of instruction words a mnemonic expands to (pseudo-instructions
/// may expand to more than one). Returns `None` for unknown mnemonics.
fn inst_words(mnemonic: &str, operands: &[Operand]) -> Option<u32> {
    match mnemonic {
        "li" => {
            // `li r, imm`: one word if imm fits in a sign-extended 16-bit
            // immediate, two (lui+ori) otherwise. Symbolic li is 2 words.
            match operands.get(1) {
                Some(Operand::Imm(v)) if i16::try_from(*v).is_ok() => Some(1),
                _ => Some(2),
            }
        }
        "la" => Some(2),
        "move" | "b" | "ret" | "neg" | "not" | "ble" | "bgt" | "beqz" | "bnez" => Some(1),
        "add" | "sub" | "mul" | "div" | "rem" | "and" | "or" | "xor" | "nor" | "slt" | "sltu"
        | "sllv" | "srlv" | "srav" | "sll" | "srl" | "sra" | "addi" | "slti" | "andi" | "ori"
        | "xori" | "lui" | "lw" | "lh" | "lhu" | "lb" | "lbu" | "sw" | "sh" | "sb" | "beq"
        | "bne" | "blt" | "bge" | "j" | "jal" | "jr" | "jalr" | "syscall" | "halt" | "nop"
        | "chk" => Some(1),
        _ => None,
    }
}

// Largest size of each section: the gap from its nominal base to the
// next segment of the layout. A section that would grow past it is an
// error, not a multi-gigabyte image.
const TEXT_LIMIT: u32 = layout::SHLIB_BASE - layout::TEXT_BASE;
const DATA_LIMIT: u32 = layout::HEAP_BASE - layout::DATA_BASE;

fn layout_pass(
    lines: &[Line],
    text_base: u32,
    data_base: u32,
) -> Result<BTreeMap<String, u32>, AsmError> {
    let mut symbols = BTreeMap::new();
    let mut section = SectionKind::Text;
    let mut text_pc = text_base;
    let mut data_pc = data_base;
    for line in lines {
        for item in &line.items {
            let (pc, base, limit, sect) = match section {
                SectionKind::Text => (&mut text_pc, text_base, TEXT_LIMIT, ".text"),
                SectionKind::Data => (&mut data_pc, data_base, DATA_LIMIT, ".data"),
            };
            let end = match item {
                Item::Label(name) => {
                    if symbols.insert(name.clone(), *pc).is_some() {
                        return Err(err(line.no, format!("duplicate label `{name}`")));
                    }
                    continue;
                }
                Item::Section(kind) => {
                    section = *kind;
                    continue;
                }
                Item::Align(0) => continue,
                // The emit pass pads .text with whole instruction words.
                Item::Align(n) if section == SectionKind::Text && n % INST_BYTES != 0 => {
                    return Err(err(
                        line.no,
                        format!(".align {n} in .text is not a multiple of {INST_BYTES}"),
                    ));
                }
                Item::Align(n) => align_to(*pc, *n),
                Item::Inst {
                    mnemonic,
                    operands,
                    line: no,
                } => {
                    if section != SectionKind::Text {
                        return Err(err(*no, "instruction outside .text section"));
                    }
                    let words = inst_words(mnemonic, operands)
                        .ok_or_else(|| err(*no, format!("unknown mnemonic `{mnemonic}`")))?;
                    pc.checked_add(words * INST_BYTES)
                }
                // The emit pass writes data bytes to the data image, so
                // laying them out in .text would shift every later label.
                _ if section == SectionKind::Text => {
                    return Err(err(line.no, "data directive outside .data section"));
                }
                Item::Word(vs) => align_to(*pc, 4).and_then(|p| grow(p, 4, vs.len())),
                Item::Half(vs) => align_to(*pc, 2).and_then(|p| grow(p, 2, vs.len())),
                Item::Byte(vs) => grow(*pc, 1, vs.len()),
                Item::Space(n) => pc.checked_add(*n),
                Item::Asciiz(s) => grow(*pc, 1, s.len() + 1),
            };
            *pc = end
                .filter(|&end| end - base <= limit)
                .ok_or_else(|| err(line.no, format!("{sect} section grows past {limit} bytes")))?;
        }
    }
    Ok(symbols)
}

/// `v` rounded up to a multiple of `align`; `None` past `u32::MAX`.
fn align_to(v: u32, align: u32) -> Option<u32> {
    v.div_ceil(align).checked_mul(align)
}

/// `pc` advanced by `count` items of `unit` bytes; `None` past `u32::MAX`.
fn grow(pc: u32, unit: u32, count: usize) -> Option<u32> {
    pc.checked_add(unit.checked_mul(u32::try_from(count).ok()?)?)
}

struct Emitter<'a> {
    symbols: &'a BTreeMap<String, u32>,
    text: Vec<u32>,
    text_base: u32,
    data: Vec<u8>,
}

impl Emitter<'_> {
    fn text_pc(&self) -> u32 {
        self.text_base + self.text.len() as u32 * INST_BYTES
    }

    fn resolve(&self, op: &Operand, no: usize) -> Result<i64, AsmError> {
        match op {
            Operand::Imm(v) => Ok(*v),
            Operand::Sym(name, off) => {
                let base = self
                    .symbols
                    .get(name)
                    .ok_or_else(|| err(no, format!("undefined label `{name}`")))?;
                Ok(*base as i64 + off)
            }
            Operand::Word(name) => {
                let base = self
                    .symbols
                    .get(name)
                    .ok_or_else(|| err(no, format!("undefined label `{name}`")))?;
                Ok(*base as i64)
            }
            _ => Err(err(no, "expected an immediate or label operand")),
        }
    }

    fn push(&mut self, inst: Inst) {
        self.text.push(encode(&inst));
    }
}

fn expect_reg(op: Option<&Operand>, no: usize) -> Result<Reg, AsmError> {
    match op {
        Some(Operand::Reg(r)) => Ok(*r),
        _ => Err(err(no, "expected a register operand")),
    }
}

fn to_i16(v: i64, no: usize, what: &str) -> Result<i16, AsmError> {
    i16::try_from(v).map_err(|_| err(no, format!("{what} {v} does not fit in 16 bits")))
}

fn to_u16(v: i64, no: usize, what: &str) -> Result<u16, AsmError> {
    if (0..=0xFFFF).contains(&v) {
        Ok(v as u16)
    } else if (-0x8000..0).contains(&v) {
        // Accept negative values with the same bit pattern.
        Ok(v as i16 as u16)
    } else {
        Err(err(no, format!("{what} {v} does not fit in 16 bits")))
    }
}

fn emit_pass(
    lines: &[Line],
    symbols: &BTreeMap<String, u32>,
    text_base: u32,
    data_base: u32,
) -> Result<Image, AsmError> {
    let mut e = Emitter {
        symbols,
        text: Vec::new(),
        text_base,
        data: Vec::new(),
    };
    let mut section = SectionKind::Text;
    for line in lines {
        for item in &line.items {
            match item {
                Item::Label(_) => {}
                Item::Section(kind) => section = *kind,
                Item::Word(vs) => {
                    while !e.data.len().is_multiple_of(4) {
                        e.data.push(0);
                    }
                    for v in vs {
                        let val = e.resolve(v, line.no)? as u32;
                        e.data.extend_from_slice(&val.to_le_bytes());
                    }
                }
                Item::Half(vs) => {
                    while !e.data.len().is_multiple_of(2) {
                        e.data.push(0);
                    }
                    for v in vs {
                        let val = e.resolve(v, line.no)? as u16;
                        e.data.extend_from_slice(&val.to_le_bytes());
                    }
                }
                Item::Byte(vs) => {
                    for v in vs {
                        e.data.push(e.resolve(v, line.no)? as u8);
                    }
                }
                Item::Space(n) => e.data.extend(std::iter::repeat_n(0, *n as usize)),
                Item::Align(n) if *n > 0 => match section {
                    SectionKind::Data => {
                        let target = align_to(data_base + e.data.len() as u32, *n)
                            .expect("layout pass bounded the section");
                        while data_base + (e.data.len() as u32) < target {
                            e.data.push(0);
                        }
                    }
                    SectionKind::Text => {
                        let target =
                            align_to(e.text_pc(), *n).expect("layout pass bounded the section");
                        while e.text_pc() < target {
                            e.push(Inst::Nop);
                        }
                    }
                },
                Item::Align(_) => {}
                Item::Asciiz(s) => {
                    e.data.extend_from_slice(s.as_bytes());
                    e.data.push(0);
                }
                Item::Inst {
                    mnemonic,
                    operands,
                    line: no,
                } => {
                    emit_inst(&mut e, mnemonic, operands, *no)?;
                }
            }
        }
    }
    let entry = symbols.get("main").copied().unwrap_or(text_base);
    Ok(Image {
        text_base,
        text: e.text,
        data_base,
        data: e.data,
        bss_len: 0,
        entry,
        symbols: symbols.clone(),
    })
}

fn emit_inst(
    e: &mut Emitter<'_>,
    mnemonic: &str,
    ops: &[Operand],
    no: usize,
) -> Result<(), AsmError> {
    use Inst::*;
    let rrr = |e: &Emitter<'_>| -> Result<(Reg, Reg, Reg), AsmError> {
        let _ = e;
        Ok((
            expect_reg(ops.first(), no)?,
            expect_reg(ops.get(1), no)?,
            expect_reg(ops.get(2), no)?,
        ))
    };
    let branch_off = |e: &Emitter<'_>, op: &Operand| -> Result<i16, AsmError> {
        match op {
            Operand::Imm(v) => to_i16(*v, no, "branch offset"),
            _ => {
                let target = e.resolve(op, no)?;
                let delta = target - (e.text_pc() as i64 + 4);
                if delta % 4 != 0 {
                    return Err(err(no, "branch target not word-aligned"));
                }
                to_i16(delta / 4, no, "branch displacement")
            }
        }
    };
    match mnemonic {
        "add" | "sub" | "mul" | "div" | "rem" | "and" | "or" | "xor" | "nor" | "slt" | "sltu" => {
            let (rd, rs, rt) = rrr(e)?;
            e.push(match mnemonic {
                "add" => Add { rd, rs, rt },
                "sub" => Sub { rd, rs, rt },
                "mul" => Mul { rd, rs, rt },
                "div" => Div { rd, rs, rt },
                "rem" => Rem { rd, rs, rt },
                "and" => And { rd, rs, rt },
                "or" => Or { rd, rs, rt },
                "xor" => Xor { rd, rs, rt },
                "nor" => Nor { rd, rs, rt },
                "slt" => Slt { rd, rs, rt },
                _ => Sltu { rd, rs, rt },
            });
        }
        "sllv" | "srlv" | "srav" => {
            let (rd, rt, rs) = rrr(e)?;
            e.push(match mnemonic {
                "sllv" => Sllv { rd, rt, rs },
                "srlv" => Srlv { rd, rt, rs },
                _ => Srav { rd, rt, rs },
            });
        }
        "sll" | "srl" | "sra" => {
            let rd = expect_reg(ops.first(), no)?;
            let rt = expect_reg(ops.get(1), no)?;
            let sh = e.resolve(
                ops.get(2).ok_or_else(|| err(no, "missing shift amount"))?,
                no,
            )?;
            if !(0..32).contains(&sh) {
                return Err(err(no, format!("shift amount {sh} out of range")));
            }
            let shamt = sh as u8;
            e.push(match mnemonic {
                "sll" => Sll { rd, rt, shamt },
                "srl" => Srl { rd, rt, shamt },
                _ => Sra { rd, rt, shamt },
            });
        }
        "addi" | "slti" => {
            let rt = expect_reg(ops.first(), no)?;
            let rs = expect_reg(ops.get(1), no)?;
            let v = e.resolve(ops.get(2).ok_or_else(|| err(no, "missing immediate"))?, no)?;
            let imm = to_i16(v, no, "immediate")?;
            e.push(if mnemonic == "addi" {
                Addi { rt, rs, imm }
            } else {
                Slti { rt, rs, imm }
            });
        }
        "andi" | "ori" | "xori" => {
            let rt = expect_reg(ops.first(), no)?;
            let rs = expect_reg(ops.get(1), no)?;
            let v = e.resolve(ops.get(2).ok_or_else(|| err(no, "missing immediate"))?, no)?;
            let imm = to_u16(v, no, "immediate")?;
            e.push(match mnemonic {
                "andi" => Andi { rt, rs, imm },
                "ori" => Ori { rt, rs, imm },
                _ => Xori { rt, rs, imm },
            });
        }
        "lui" => {
            let rt = expect_reg(ops.first(), no)?;
            let v = e.resolve(ops.get(1).ok_or_else(|| err(no, "missing immediate"))?, no)?;
            e.push(Lui {
                rt,
                imm: to_u16(v, no, "immediate")?,
            });
        }
        "lw" | "lh" | "lhu" | "lb" | "lbu" | "sw" | "sh" | "sb" => {
            let rt = expect_reg(ops.first(), no)?;
            let (off, base) = match ops.get(1) {
                Some(Operand::Mem { off, base }) => {
                    (to_i16(e.resolve(off, no)?, no, "offset")?, *base)
                }
                _ => return Err(err(no, "expected memory operand off(base)")),
            };
            e.push(match mnemonic {
                "lw" => Lw { rt, base, off },
                "lh" => Lh { rt, base, off },
                "lhu" => Lhu { rt, base, off },
                "lb" => Lb { rt, base, off },
                "lbu" => Lbu { rt, base, off },
                "sw" => Sw { rt, base, off },
                "sh" => Sh { rt, base, off },
                _ => Sb { rt, base, off },
            });
        }
        "beq" | "bne" | "blt" | "bge" => {
            let rs = expect_reg(ops.first(), no)?;
            let rt = expect_reg(ops.get(1), no)?;
            let off = branch_off(
                e,
                ops.get(2).ok_or_else(|| err(no, "missing branch target"))?,
            )?;
            e.push(match mnemonic {
                "beq" => Beq { rs, rt, off },
                "bne" => Bne { rs, rt, off },
                "blt" => Blt { rs, rt, off },
                _ => Bge { rs, rt, off },
            });
        }
        "ble" | "bgt" => {
            // ble rs, rt, L == bge rt, rs, L ; bgt rs, rt, L == blt rt, rs, L
            let rs = expect_reg(ops.first(), no)?;
            let rt = expect_reg(ops.get(1), no)?;
            let off = branch_off(
                e,
                ops.get(2).ok_or_else(|| err(no, "missing branch target"))?,
            )?;
            e.push(if mnemonic == "ble" {
                Bge {
                    rs: rt,
                    rt: rs,
                    off,
                }
            } else {
                Blt {
                    rs: rt,
                    rt: rs,
                    off,
                }
            });
        }
        "beqz" | "bnez" => {
            let rs = expect_reg(ops.first(), no)?;
            let off = branch_off(
                e,
                ops.get(1).ok_or_else(|| err(no, "missing branch target"))?,
            )?;
            e.push(if mnemonic == "beqz" {
                Beq {
                    rs,
                    rt: Reg::ZERO,
                    off,
                }
            } else {
                Bne {
                    rs,
                    rt: Reg::ZERO,
                    off,
                }
            });
        }
        "b" => {
            let off = branch_off(
                e,
                ops.first()
                    .ok_or_else(|| err(no, "missing branch target"))?,
            )?;
            e.push(Beq {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                off,
            });
        }
        "j" | "jal" => {
            let target = e.resolve(
                ops.first().ok_or_else(|| err(no, "missing jump target"))?,
                no,
            )?;
            let addr = target as u32;
            if !addr.is_multiple_of(4) {
                return Err(err(no, "jump target not word-aligned"));
            }
            let field = (addr >> 2) & 0x03FF_FFFF;
            e.push(if mnemonic == "j" {
                J { target: field }
            } else {
                Jal { target: field }
            });
        }
        "jr" => e.push(Jr {
            rs: expect_reg(ops.first(), no)?,
        }),
        "ret" => e.push(Jr { rs: Reg::RA }),
        "jalr" => {
            let rd = expect_reg(ops.first(), no)?;
            let rs = expect_reg(ops.get(1), no)?;
            e.push(Jalr { rd, rs });
        }
        "syscall" => e.push(Syscall),
        "halt" => e.push(Halt),
        "nop" => e.push(Nop),
        "move" => {
            let rd = expect_reg(ops.first(), no)?;
            let rs = expect_reg(ops.get(1), no)?;
            e.push(Add {
                rd,
                rs,
                rt: Reg::ZERO,
            });
        }
        "neg" => {
            let rd = expect_reg(ops.first(), no)?;
            let rs = expect_reg(ops.get(1), no)?;
            e.push(Sub {
                rd,
                rs: Reg::ZERO,
                rt: rs,
            });
        }
        "not" => {
            let rd = expect_reg(ops.first(), no)?;
            let rs = expect_reg(ops.get(1), no)?;
            e.push(Nor {
                rd,
                rs,
                rt: Reg::ZERO,
            });
        }
        "li" => {
            let rt = expect_reg(ops.first(), no)?;
            let v = e.resolve(ops.get(1).ok_or_else(|| err(no, "missing immediate"))?, no)?;
            let fits_i16 = matches!(ops.get(1), Some(Operand::Imm(x)) if i16::try_from(*x).is_ok());
            if fits_i16 {
                e.push(Addi {
                    rt,
                    rs: Reg::ZERO,
                    imm: v as i16,
                });
            } else {
                let v = v as u32;
                e.push(Lui {
                    rt,
                    imm: (v >> 16) as u16,
                });
                e.push(Ori {
                    rt,
                    rs: rt,
                    imm: (v & 0xFFFF) as u16,
                });
            }
        }
        "la" => {
            let rt = expect_reg(ops.first(), no)?;
            let v = e.resolve(ops.get(1).ok_or_else(|| err(no, "missing address"))?, no)? as u32;
            e.push(Lui {
                rt,
                imm: (v >> 16) as u16,
            });
            e.push(Ori {
                rt,
                rs: rt,
                imm: (v & 0xFFFF) as u16,
            });
        }
        "chk" => {
            let module = match ops.first() {
                Some(Operand::Word(w)) => {
                    ModuleId::parse(w).ok_or_else(|| err(no, format!("unknown module `{w}`")))?
                }
                Some(Operand::Imm(v)) => u8::try_from(*v)
                    .ok()
                    .and_then(ModuleId::try_new)
                    .ok_or_else(|| err(no, "module number out of range"))?,
                _ => return Err(err(no, "chk expects: module, blk|nblk, op, param")),
            };
            let blocking = match ops.get(1) {
                Some(Operand::Word(w)) if w.eq_ignore_ascii_case("blk") => true,
                Some(Operand::Word(w)) if w.eq_ignore_ascii_case("nblk") => false,
                _ => return Err(err(no, "chk expects blk or nblk as second operand")),
            };
            let op_num = e.resolve(ops.get(2).ok_or_else(|| err(no, "missing chk op"))?, no)?;
            if !(0..32).contains(&op_num) {
                return Err(err(no, "chk op out of 5-bit range"));
            }
            let param = match ops.get(3) {
                Some(op) => to_u16(e.resolve(op, no)?, no, "chk param")?,
                None => 0,
            };
            e.push(Chk(ChkSpec::new(module, blocking, op_num as u8, param)));
        }
        other => return Err(err(no, format!("unknown mnemonic `{other}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chk::ops as chk_ops;
    use crate::decode;

    fn asm(src: &str) -> Image {
        assemble(src).expect("assembly failed")
    }

    #[test]
    fn labels_and_branches_resolve() {
        let img = asm(r#"
            .text
        main:   addi r4, r0, 3
        loop:   addi r4, r4, -1
                bne  r4, r0, loop
                halt
        "#);
        assert_eq!(img.entry, img.text_base);
        // bne is the third instruction; its target is the second.
        let bne = decode(img.text[2]).unwrap();
        assert_eq!(
            bne,
            Inst::Bne {
                rs: Reg::A0,
                rt: Reg::ZERO,
                off: -2
            }
        );
    }

    #[test]
    fn forward_references_resolve() {
        let img = asm(r#"
        main:   beq r0, r0, end
                nop
        end:    halt
        "#);
        assert_eq!(
            decode(img.text[0]).unwrap(),
            Inst::Beq {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                off: 1
            }
        );
    }

    #[test]
    fn li_small_is_one_instruction() {
        let img = asm("main: li r4, 42\nhalt");
        assert_eq!(img.text.len(), 2);
        assert_eq!(
            decode(img.text[0]).unwrap(),
            Inst::Addi {
                rt: Reg::A0,
                rs: Reg::ZERO,
                imm: 42
            }
        );
    }

    #[test]
    fn li_large_is_lui_ori() {
        let img = asm("main: li r4, 0x12345678\nhalt");
        assert_eq!(img.text.len(), 3);
        assert_eq!(
            decode(img.text[0]).unwrap(),
            Inst::Lui {
                rt: Reg::A0,
                imm: 0x1234
            }
        );
        assert_eq!(
            decode(img.text[1]).unwrap(),
            Inst::Ori {
                rt: Reg::A0,
                rs: Reg::A0,
                imm: 0x5678
            }
        );
    }

    #[test]
    fn la_loads_data_addresses() {
        let img = asm(r#"
        main:   la r5, buf
                halt
                .data
        buf:    .word 7
        "#);
        let addr = img.symbol("buf").unwrap();
        assert_eq!(addr, img.data_base);
        assert_eq!(
            decode(img.text[0]).unwrap(),
            Inst::Lui {
                rt: Reg::A1,
                imm: (addr >> 16) as u16
            }
        );
    }

    #[test]
    fn data_directives_emit_bytes() {
        let img = asm(r#"
        main:   halt
                .data
        w:      .word 0x01020304, 5
        h:      .half 0x0607
        b:      .byte 1, 2, 3
        s:      .asciiz "ab"
        sp:     .space 4
        "#);
        assert_eq!(&img.data[0..4], &[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(&img.data[4..8], &[5, 0, 0, 0]);
        assert_eq!(&img.data[8..10], &[0x07, 0x06]);
        assert_eq!(&img.data[10..13], &[1, 2, 3]);
        assert_eq!(&img.data[13..16], b"ab\0");
        assert_eq!(img.data.len(), 20);
    }

    #[test]
    fn chk_assembles_with_module_mnemonics() {
        let img = asm("main: chk icm, blk, 2, 0\nchk ddt, nblk, 2, 7\nhalt");
        assert_eq!(
            decode(img.text[0]).unwrap(),
            Inst::Chk(ChkSpec::blocking(ModuleId::ICM, chk_ops::ICM_CHECK_NEXT, 0))
        );
        assert_eq!(
            decode(img.text[1]).unwrap(),
            Inst::Chk(ChkSpec::non_blocking(
                ModuleId::DDT,
                chk_ops::DDT_SET_THREAD,
                7
            ))
        );
    }

    #[test]
    fn symbol_plus_offset() {
        let img = asm(r#"
        main:   la r4, tbl+8
                halt
                .data
        tbl:    .word 1, 2, 3
        "#);
        let addr = img.symbol("tbl").unwrap() + 8;
        assert_eq!(
            decode(img.text[1]).unwrap(),
            Inst::Ori {
                rt: Reg::A0,
                rs: Reg::A0,
                imm: (addr & 0xFFFF) as u16
            }
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("main: nop\n frob r1, r2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("frob"));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let e = assemble("a: nop\na: nop\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn undefined_label_rejected() {
        let e = assemble("main: j nowhere\n").unwrap_err();
        assert!(e.msg.contains("undefined"));
    }

    #[test]
    fn branch_out_of_range_rejected() {
        // A branch to a label > 32767 instructions away cannot encode.
        let mut src = String::from("main: beq r0, r0, far\n");
        for _ in 0..40000 {
            src.push_str("nop\n");
        }
        src.push_str("far: halt\n");
        let e = assemble(&src).unwrap_err();
        assert!(e.msg.contains("does not fit"));
    }

    #[test]
    fn instructions_in_data_section_rejected() {
        let e = assemble(".data\nadd r1, r2, r3\n").unwrap_err();
        assert!(e.msg.contains("outside .text"));
    }

    #[test]
    fn data_directives_in_text_section_rejected() {
        // Data bytes go to the data image: laid out in .text, `.word 5`
        // would move `after` one word past its instruction.
        let e = assemble("main: li r8, 7\nj after\n.word 5\nafter: li r4, 1\nhalt").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("outside .data"), "{e}");
        for directive in [".half 1", ".byte 1", ".space 4", ".asciiz \"x\""] {
            let e = assemble(&format!("main: nop\n{directive}\nhalt")).unwrap_err();
            assert_eq!(e.line, 2, "{directive}");
            assert!(e.msg.contains("outside .data"), "{directive}: {e}");
        }
    }

    #[test]
    fn oversized_sections_rejected() {
        for (src, line, section) in [
            ("main: halt\n.data\nx: .space 4294967295", 3, ".data"),
            (".data\n.align 2147483648", 2, ".data"),
            (".align 1073741824", 1, ".text"),
        ] {
            let e = assemble(src).unwrap_err();
            assert_eq!(e.line, line, "{src}");
            assert!(
                e.msg.contains(section) && e.msg.contains("grows past"),
                "{src}: {e}"
            );
        }
    }

    #[test]
    fn memory_operands_parse() {
        let img = asm("main: lw r8, 12(r29)\nsw r8, (r29)\nhalt");
        assert_eq!(
            decode(img.text[0]).unwrap(),
            Inst::Lw {
                rt: Reg::T0,
                base: Reg::SP,
                off: 12
            }
        );
        assert_eq!(
            decode(img.text[1]).unwrap(),
            Inst::Sw {
                rt: Reg::T0,
                base: Reg::SP,
                off: 0
            }
        );
    }

    #[test]
    fn align_directive_pads_data() {
        let img = asm(r#"
        main:   halt
                .data
        a:      .byte 1
                .align 4
        b:      .word 2
        "#);
        assert_eq!(img.symbol("b").unwrap() % 4, 0);
        assert_eq!(img.symbol("b").unwrap(), img.data_base + 4);
    }

    #[test]
    fn malformed_operands_are_named_errors() {
        for (src, needle) in [
            ("main: lw r4, )(", "malformed memory operand `)(`"),
            ("main: sw r4, 4 ) ( r2", "malformed memory operand"),
            ("main: li r4, \u{e9}+1", "cannot parse operand"),
        ] {
            let e = assemble(src).unwrap_err();
            assert_eq!(e.line, 1, "{src}");
            assert!(e.msg.contains(needle), "{src}: {e}");
        }
    }

    #[test]
    fn text_align_must_be_a_multiple_of_the_instruction_size() {
        // The layout pass would put `after` at a 6-byte boundary while the
        // emit pass pads whole nop words, so `la` would load an address
        // 2 bytes short of `after`'s instruction.
        let e = assemble("main: la r4, after\nnop\n.align 6\nafter: li r2, 1\nsyscall\nhalt")
            .unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains(".align 6 in .text"), "{e}");
        // A jump to the label is not what gets blamed: the directive is.
        let e = assemble("main: li r4, 7\nj after\nnop\n.align 6\nafter: li r2, 1\nsyscall\nhalt")
            .unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        // Multiples of the instruction size pad with nops up to the label.
        let img = asm("main: nop\n.align 16\nafter: halt");
        let after = img.symbol("after").unwrap();
        assert_eq!(after % 16, 0);
        assert_eq!(after, img.text_base + 4 * (img.text.len() as u32 - 1));
        assert_eq!(decode(img.text[img.text.len() - 1]).unwrap(), Inst::Halt);
    }
}
