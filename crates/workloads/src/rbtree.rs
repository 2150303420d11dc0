//! Red-black tree with parent pointers and colours (Table II).
//!
//! "Each node contains a pointer to the parent and an integer
//! recording the color." Parent pointers are the paper's flagship lazy
//! candidates (§VI-D4): their values are rebuildable from the child
//! pointers, so updates use `storeT(lazy)` and recovery re-derives
//! them by walking the tree. Colour updates are likewise annotated
//! lazy by hand; if a crash loses deferred colours, recovery recolours
//! the durable *shape* with a black-height dynamic program (any valid
//! red-black colouring restores the invariant — colours are a balance
//! hint, not data).
//!
//! ### Persistent layout
//!
//! ```text
//! root:  [0]=tree root pointer  [1]=size
//! node:  [0]=key [1]=left [2]=right [3]=parent [4]=color (0 = black)
//!        [5..]=value
//! ```

use crate::ctx::{AnnotationSource, PmContext};
use crate::runner::{DurableIndex, Load, Reader, ValueAt, Visit};
use slpmt_annotate::{Annotation, AnnotationTable, Operand, ParamKind, TxnIr, TxnIrBuilder};
use slpmt_pmem::PmAddr;

/// Store sites of the insert transaction.
pub mod sites {
    use slpmt_annotate::SiteId;
    /// New node's key.
    pub const NODE_KEY: SiteId = SiteId(0);
    /// New node's value payload.
    pub const NODE_VALUE: SiteId = SiteId(1);
    /// New node's left/right initialisation (null).
    pub const NODE_CHILD_INIT: SiteId = SiteId(2);
    /// New node's parent pointer.
    pub const NODE_PARENT_NEW: SiteId = SiteId(3);
    /// New node's colour (red).
    pub const NODE_COLOR_NEW: SiteId = SiteId(4);
    /// Existing node's child pointer linking in the new node.
    pub const LINK_CHILD: SiteId = SiteId(5);
    /// Root object's tree-root pointer.
    pub const ROOT_PTR: SiteId = SiteId(6);
    /// Root object's size counter.
    pub const SIZE: SiteId = SiteId(7);
    /// Colour update on an existing node (fix-up recolouring).
    pub const FIX_COLOR: SiteId = SiteId(8);
    /// Child pointer update on an existing node (rotation).
    pub const ROT_CHILD: SiteId = SiteId(9);
    /// Parent pointer update on an existing node (rotation/fix-up).
    pub const PARENT_UPD: SiteId = SiteId(10);
    /// Poison store into the node being freed (Pattern 1, free case).
    pub const RM_POISON: SiteId = SiteId(11);
    /// In-place value overwrite on update (logged).
    pub const UPD_VALUE: SiteId = SiteId(12);
}

const RED: u64 = 1;
const BLACK: u64 = 0;
const CMP_COST: u64 = 6;

fn fld(base: PmAddr, i: u64) -> PmAddr {
    base.add(i * 8)
}

/// Node `n`'s header words `[key, left, right, parent, color]`, read
/// untimed in one go.
fn peek_node(ctx: &PmContext, n: u64) -> [u64; 5] {
    ctx.peek_words(PmAddr::new(n))
}

/// Checks `n`'s subtree in one depth-first walk, reading each node's
/// header once, and returns its black height; adds its nodes to
/// `nodes`. Keys must lie in `[lo, hi]`, each parent pointer must name
/// `parent`, a red node's children must be black, and both subtrees of
/// a node must share a black height.
fn check_subtree(
    ctx: &PmContext,
    n: u64,
    (lo, hi): (u64, u64),
    parent: u64,
    parent_red: bool,
    nodes: &mut usize,
) -> Result<u64, String> {
    if n == 0 {
        return Ok(1);
    }
    *nodes += 1;
    let [key, l, r, p, c] = peek_node(ctx, n);
    if key < lo || key > hi {
        return Err(format!("BST violation: key {key} outside [{lo}, {hi}]"));
    }
    if p != parent {
        return Err(format!(
            "parent pointer of {n:#x} is {p:#x}, expected {parent:#x}"
        ));
    }
    if c == RED && parent_red {
        return Err(format!("red-red violation at {parent:#x}"));
    }
    let red = c == RED;
    let lb = check_subtree(ctx, l, (lo, key.saturating_sub(1)), n, red, nodes)?;
    let rb = check_subtree(ctx, r, (key.saturating_add(1), hi), n, red, nodes)?;
    if lb != rb {
        return Err(format!("black-height mismatch at {n:#x}"));
    }
    Ok(lb + if c == BLACK { 1 } else { 0 })
}

/// The black-heights a subtree supports, one bit mask per colour of
/// its root: bit `h` set ⇔ black-height `h` is achievable. A black
/// height needs at least 2^(h-1) - 1 nodes, so 64 bits always suffice.
#[derive(Debug, Clone, Copy)]
struct Heights {
    black: u64,
    red: u64,
}

impl Heights {
    fn supports(self, color: u64, bh: u64) -> bool {
        let mask = if color == BLACK { self.black } else { self.red };
        mask >> bh & 1 == 1
    }
}

/// Null child index in recovery's walk.
const NONE: usize = usize::MAX;

/// A node as recovery's walk saw it: its address, durable colour and
/// children's walk indices ([`NONE`] for null), then, from the reverse
/// pass, its subtree's durable black height and the heights its
/// subtree supports.
#[derive(Debug, Clone, Copy)]
struct Walked {
    n: u64,
    color: u64,
    kids: [usize; 2],
    bh: u64,
    heights: Heights,
}

impl Walked {
    /// The null leaf: black, black-height 1.
    const NIL: Walked = Walked {
        n: 0,
        color: BLACK,
        kids: [NONE; 2],
        bh: 1,
        heights: Heights {
            black: 1 << 1,
            red: 0,
        },
    };
}

/// The durable red-black tree.
#[derive(Debug, Clone)]
pub struct Rbtree {
    root: PmAddr,
    value_words: u64,
}

impl Rbtree {
    /// Hand-written annotations: new-node fields are log-free; parent
    /// pointers and colours are lazily persistent (rebuildable).
    pub fn manual_table() -> AnnotationTable {
        use sites::*;
        [
            (NODE_KEY, Annotation::LogFree),
            (NODE_VALUE, Annotation::LogFree),
            (NODE_CHILD_INIT, Annotation::LogFree),
            (NODE_PARENT_NEW, Annotation::LogFree),
            (NODE_COLOR_NEW, Annotation::LogFree),
            (FIX_COLOR, Annotation::Lazy),
            (PARENT_UPD, Annotation::Lazy),
            (RM_POISON, Annotation::LazyLogFree),
        ]
        .into_iter()
        .collect()
    }

    /// IR of the insert transaction for the compiler pass: the
    /// new-node pattern, the rotation's parent-pointer update (flow-out
    /// and recoverable → lazy), and the colour computation marked
    /// opaque (the compiler "fails to infer deeper semantics").
    pub fn ir() -> TxnIr {
        use sites::*;
        let mut b = TxnIrBuilder::new("rbtree-insert");
        let root = b.param(ParamKind::PersistentPtr);
        let key = b.param(ParamKind::Key);
        let val = b.param(ParamKind::Value);
        let pos = b.load(root, 0); // insertion parent found by descent
        let node = b.alloc();
        b.store_at(NODE_KEY, node, 0, Operand::Value(key));
        b.store_at(NODE_VALUE, node, 5, Operand::Value(val));
        b.store_at(NODE_CHILD_INIT, node, 1, Operand::Const(0));
        b.store_at(NODE_PARENT_NEW, node, 3, Operand::Value(pos));
        b.store_at(NODE_COLOR_NEW, node, 4, Operand::Const(RED));
        b.store_at(LINK_CHILD, pos, 1, Operand::Value(node));
        let size = b.load(root, 1);
        let size2 = b.compute_opaque(vec![Operand::Value(size)]);
        b.store_at(SIZE, root, 1, Operand::Value(size2));
        // Fix-up portion: rotate around pos's parent. Which pointer
        // lands where is decided by the re-balancing logic, which the
        // compiler cannot analyse — the rotated child pointers and the
        // new tree root flow through opaque computations (so they stay
        // eagerly logged) while the parent back-pointer is a plain
        // recoverable value the compiler *does* find (§VI-D4).
        let gp = b.load(pos, 3);
        let uncle = b.load(gp, 2);
        let color = b.compute_opaque(vec![Operand::Value(uncle)]);
        b.store_at(FIX_COLOR, uncle, 4, Operand::Value(color));
        let rotated = b.compute_opaque(vec![Operand::Value(uncle), Operand::Value(gp)]);
        b.store_at(ROT_CHILD, gp, 1, Operand::Value(rotated));
        b.store_at(PARENT_UPD, uncle, 3, Operand::Value(gp));
        let new_root = b.compute_opaque(vec![Operand::Value(gp)]);
        b.store_at(ROOT_PTR, root, 0, Operand::Value(new_root));
        b.build()
    }

    /// Builds an empty tree (untimed setup), installing the resolved
    /// annotation table.
    ///
    /// # Panics
    ///
    /// Panics if `value_size` is not a multiple of 8.
    pub fn new(ctx: &mut PmContext, value_size: usize, source: AnnotationSource) -> Self {
        assert!(
            value_size.is_multiple_of(8),
            "value size must be whole words"
        );
        ctx.set_table(source.resolve(&Self::manual_table(), &Self::ir()));
        let root = ctx.setup_alloc(2 * 8);
        Rbtree {
            root,
            value_words: (value_size / 8) as u64,
        }
    }

    fn node_bytes(&self) -> u64 {
        (5 + self.value_words) * 8
    }

    // Timed accessors -------------------------------------------------

    fn child(&self, ctx: &mut impl Load, n: PmAddr, dir: u64) -> u64 {
        ctx.load(fld(n, 1 + dir))
    }

    fn set_child(&self, ctx: &mut PmContext, n: PmAddr, dir: u64, v: u64) {
        ctx.store(fld(n, 1 + dir), v, sites::ROT_CHILD);
    }

    fn parent(&self, ctx: &mut PmContext, n: PmAddr) -> u64 {
        ctx.load(fld(n, 3))
    }

    fn set_parent(&self, ctx: &mut PmContext, n: PmAddr, v: u64) {
        ctx.store(fld(n, 3), v, sites::PARENT_UPD);
    }

    fn color(&self, ctx: &mut PmContext, n: u64) -> u64 {
        if n == 0 {
            BLACK
        } else {
            ctx.load(fld(PmAddr::new(n), 4))
        }
    }

    fn set_color(&self, ctx: &mut PmContext, n: PmAddr, c: u64) {
        ctx.store(fld(n, 4), c, sites::FIX_COLOR);
    }

    /// Rotates around `x` in direction `dir` (0 = left, 1 = right).
    fn rotate(&self, ctx: &mut PmContext, x: PmAddr, dir: u64) {
        let y = PmAddr::new(self.child(ctx, x, 1 - dir));
        let beta = self.child(ctx, y, dir);
        self.set_child(ctx, x, 1 - dir, beta);
        if beta != 0 {
            self.set_parent(ctx, PmAddr::new(beta), x.raw());
        }
        let xp = self.parent(ctx, x);
        self.set_parent(ctx, y, xp);
        if xp == 0 {
            ctx.store(fld(self.root, 0), y.raw(), sites::ROOT_PTR);
        } else {
            let p = PmAddr::new(xp);
            if self.child(ctx, p, 0) == x.raw() {
                self.set_child(ctx, p, 0, y.raw());
            } else {
                self.set_child(ctx, p, 1, y.raw());
            }
        }
        self.set_child(ctx, y, dir, x.raw());
        self.set_parent(ctx, x, y.raw());
    }

    /// CLRS insert fix-up.
    fn fixup(&self, ctx: &mut PmContext, mut z: PmAddr) {
        loop {
            let zp = self.parent(ctx, z);
            if zp == 0 || self.color(ctx, zp) == BLACK {
                break;
            }
            let p = PmAddr::new(zp);
            let gp_raw = self.parent(ctx, p);
            debug_assert_ne!(gp_raw, 0, "red parent implies a grandparent");
            let g = PmAddr::new(gp_raw);
            let dir = if self.child(ctx, g, 0) == zp {
                0u64
            } else {
                1u64
            };
            let uncle = self.child(ctx, g, 1 - dir);
            if self.color(ctx, uncle) == RED {
                self.set_color(ctx, p, BLACK);
                self.set_color(ctx, PmAddr::new(uncle), BLACK);
                self.set_color(ctx, g, RED);
                z = g;
            } else {
                if self.child(ctx, p, 1 - dir) == z.raw() {
                    z = p;
                    self.rotate(ctx, z, dir);
                }
                let zp2 = PmAddr::new(self.parent(ctx, z));
                let g2 = PmAddr::new(self.parent(ctx, zp2));
                self.set_color(ctx, zp2, BLACK);
                self.set_color(ctx, g2, RED);
                self.rotate(ctx, g2, 1 - dir);
            }
        }
        let r = ctx.load(fld(self.root, 0));
        if self.color(ctx, r) == RED {
            self.set_color(ctx, PmAddr::new(r), BLACK);
        }
    }

    /// Replaces the subtree rooted at `u` with the one rooted at `v`
    /// (CLRS `RB-TRANSPLANT`); `v` may be null.
    fn transplant(&self, ctx: &mut PmContext, u: PmAddr, v: u64) {
        let up = self.parent(ctx, u);
        if up == 0 {
            ctx.store(fld(self.root, 0), v, sites::ROOT_PTR);
        } else {
            let p = PmAddr::new(up);
            if self.child(ctx, p, 0) == u.raw() {
                self.set_child(ctx, p, 0, v);
            } else {
                self.set_child(ctx, p, 1, v);
            }
        }
        if v != 0 {
            self.set_parent(ctx, PmAddr::new(v), up);
        }
    }

    /// CLRS `RB-DELETE-FIXUP`, generalised over direction; `x` may be
    /// null, so its parent is tracked explicitly.
    fn delete_fixup(&self, ctx: &mut PmContext, mut x: u64, mut xp: u64) {
        loop {
            let root = ctx.load(fld(self.root, 0));
            if x == root || self.color(ctx, x) == RED {
                break;
            }
            let p = PmAddr::new(xp);
            let dir = if self.child(ctx, p, 0) == x {
                0u64
            } else {
                1u64
            };
            let mut w = PmAddr::new(self.child(ctx, p, 1 - dir));
            debug_assert_ne!(w.raw(), 0, "doubly-black node must have a sibling");
            if self.color(ctx, w.raw()) == RED {
                self.set_color(ctx, w, BLACK);
                self.set_color(ctx, p, RED);
                self.rotate(ctx, p, dir);
                w = PmAddr::new(self.child(ctx, p, 1 - dir));
            }
            let near = self.child(ctx, w, dir);
            let far = self.child(ctx, w, 1 - dir);
            if self.color(ctx, near) == BLACK && self.color(ctx, far) == BLACK {
                self.set_color(ctx, w, RED);
                x = p.raw();
                xp = self.parent(ctx, p);
            } else {
                if self.color(ctx, far) == BLACK {
                    if near != 0 {
                        self.set_color(ctx, PmAddr::new(near), BLACK);
                    }
                    self.set_color(ctx, w, RED);
                    self.rotate(ctx, w, 1 - dir);
                    w = PmAddr::new(self.child(ctx, p, 1 - dir));
                }
                let pc = self.color(ctx, p.raw());
                self.set_color(ctx, w, pc);
                self.set_color(ctx, p, BLACK);
                let far2 = self.child(ctx, w, 1 - dir);
                if far2 != 0 {
                    self.set_color(ctx, PmAddr::new(far2), BLACK);
                }
                self.rotate(ctx, p, dir);
                break;
            }
        }
        if x != 0 {
            self.set_color(ctx, PmAddr::new(x), BLACK);
        }
    }

    // Untimed helpers --------------------------------------------------

    /// Calls `f(node, header)` for every node, reading each header once.
    fn for_each(&self, ctx: &PmContext, mut f: impl FnMut(u64, [u64; 5])) {
        let mut stack = vec![ctx.peek(fld(self.root, 0))];
        while let Some(n) = stack.pop() {
            if n == 0 {
                continue;
            }
            let node = peek_node(ctx, n);
            f(n, node);
            stack.push(node[1]);
            stack.push(node[2]);
        }
    }

    /// Checks the whole tree in one [`check_subtree`] walk plus a black
    /// root; returns the node count.
    fn violations(&self, ctx: &PmContext) -> Result<usize, String> {
        let r = ctx.peek(fld(self.root, 0));
        let mut count = 0;
        check_subtree(ctx, r, (u64::MIN, u64::MAX), 0, false, &mut count)?;
        if r != 0 && peek_node(ctx, r)[4] == RED {
            return Err("root is red".into());
        }
        Ok(count)
    }
}

impl DurableIndex for Rbtree {
    fn name(&self) -> &'static str {
        "rbtree"
    }

    fn scan_range(&mut self, ctx: &mut PmContext, lo: u64, hi: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        // In-order walk pruning subtrees outside [lo, hi].
        let mut stack = vec![(ctx.load(fld(self.root, 0)), false)];
        while let Some((n, expanded)) = stack.pop() {
            if n == 0 {
                continue;
            }
            let a = PmAddr::new(n);
            if expanded {
                let k = ctx.load(fld(a, 0));
                if (lo..=hi).contains(&k) {
                    let mut v = vec![0u8; (self.value_words * 8) as usize];
                    ctx.load_bytes(fld(a, 5), &mut v);
                    out.push((k, v));
                }
                continue;
            }
            ctx.compute(CMP_COST);
            let k = ctx.load(fld(a, 0));
            if k < hi {
                stack.push((ctx.load(fld(a, 2)), false));
            }
            stack.push((n, true));
            if k > lo {
                stack.push((ctx.load(fld(a, 1)), false));
            }
        }
        Some(out)
    }

    fn insert(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) {
        use sites::*;
        assert_eq!(value.len() as u64, self.value_words * 8);
        ctx.tx_begin();
        // Descend to the insertion point.
        let mut parent = 0u64;
        let mut cur = ctx.load(fld(self.root, 0));
        let mut dir = 0u64;
        while cur != 0 {
            ctx.compute(CMP_COST);
            let k = ctx.load(fld(PmAddr::new(cur), 0));
            parent = cur;
            dir = if key < k { 0 } else { 1 };
            cur = self.child(ctx, PmAddr::new(cur), dir);
        }
        // Build the new node (log-free: Pattern 1).
        let node = ctx.alloc(self.node_bytes());
        ctx.store(fld(node, 0), key, NODE_KEY);
        ctx.store(fld(node, 1), 0, NODE_CHILD_INIT);
        ctx.store(fld(node, 2), 0, NODE_CHILD_INIT);
        ctx.store(fld(node, 3), parent, NODE_PARENT_NEW);
        ctx.store(fld(node, 4), RED, NODE_COLOR_NEW);
        ctx.store_bytes(fld(node, 5), value, NODE_VALUE);
        // Publish.
        if parent == 0 {
            ctx.store(fld(self.root, 0), node.raw(), ROOT_PTR);
        } else {
            ctx.store(fld(PmAddr::new(parent), 1 + dir), node.raw(), LINK_CHILD);
        }
        let size = ctx.load(fld(self.root, 1)) + 1;
        ctx.store(fld(self.root, 1), size, SIZE);
        self.fixup(ctx, node);
        ctx.tx_commit();
    }

    fn remove(&mut self, ctx: &mut PmContext, key: u64) -> bool {
        use sites::*;
        ctx.tx_begin();
        // Find the node.
        let mut cur = ctx.load(fld(self.root, 0));
        while cur != 0 {
            ctx.compute(CMP_COST);
            let a = PmAddr::new(cur);
            let k = ctx.load(fld(a, 0));
            if k == key {
                break;
            }
            cur = self.child(ctx, a, if key < k { 0 } else { 1 });
        }
        if cur == 0 {
            ctx.tx_commit();
            return false;
        }
        let z = PmAddr::new(cur);
        // CLRS RB-DELETE.
        let (zl, zr) = (self.child(ctx, z, 0), self.child(ctx, z, 1));
        let y_color;
        let x;
        let xp;
        if zl == 0 {
            y_color = self.color(ctx, z.raw());
            x = zr;
            xp = self.parent(ctx, z);
            self.transplant(ctx, z, zr);
        } else if zr == 0 {
            y_color = self.color(ctx, z.raw());
            x = zl;
            xp = self.parent(ctx, z);
            self.transplant(ctx, z, zl);
        } else {
            // Successor: leftmost of the right subtree.
            let mut y = PmAddr::new(zr);
            loop {
                let l = self.child(ctx, y, 0);
                if l == 0 {
                    break;
                }
                ctx.compute(CMP_COST);
                y = PmAddr::new(l);
            }
            y_color = self.color(ctx, y.raw());
            x = self.child(ctx, y, 1);
            if self.parent(ctx, y) == z.raw() {
                xp = y.raw();
            } else {
                xp = self.parent(ctx, y);
                self.transplant(ctx, y, x);
                let zr2 = self.child(ctx, z, 1);
                self.set_child(ctx, y, 1, zr2);
                self.set_parent(ctx, PmAddr::new(zr2), y.raw());
            }
            self.transplant(ctx, z, y.raw());
            let zl2 = self.child(ctx, z, 0);
            self.set_child(ctx, y, 0, zl2);
            self.set_parent(ctx, PmAddr::new(zl2), y.raw());
            let zc = self.color(ctx, z.raw());
            self.set_color(ctx, y, zc);
        }
        if y_color == BLACK {
            self.delete_fixup(ctx, x, xp);
        }
        // Poison the dying node (Pattern 1, free case) and retire it.
        ctx.store(fld(z, 0), 0, RM_POISON);
        ctx.free(z);
        let size = ctx.load(fld(self.root, 1)) - 1;
        ctx.store(fld(self.root, 1), size, SIZE);
        ctx.tx_commit();
        true
    }

    fn locate(&self, r: &mut Reader<'_>, key: u64) -> Option<ValueAt> {
        let mut cur = r.load(fld(self.root, 0));
        while cur != 0 {
            r.compute(CMP_COST);
            let a = PmAddr::new(cur);
            let k = r.load(fld(a, 0));
            if k == key {
                return Some(ValueAt::Inline {
                    at: fld(a, 5),
                    len: self.value_words * 8,
                    site: sites::UPD_VALUE,
                });
            }
            cur = self.child(r, a, if key < k { 0 } else { 1 });
        }
        None
    }

    fn walk(&self, ctx: &PmContext, f: &mut dyn FnMut(Visit)) {
        f(Visit::Block(self.root));
        self.for_each(ctx, |n, [key, ..]| {
            f(Visit::Block(PmAddr::new(n)));
            f(Visit::Entry(key, fld(PmAddr::new(n), 5)));
        });
    }

    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String> {
        let count = self.violations(ctx)?;
        let size = ctx.peek(fld(self.root, 1));
        if size as usize != count {
            return Err(format!("size {size} != node count {count}"));
        }
        Ok(())
    }

    fn recover(&mut self, ctx: &mut PmContext) {
        // One pre-order walk reads each header once, rewrites the lazy
        // parent pointers that differ and records the shape; each stack
        // entry carries its parent, its slot in the parent's entry and
        // its key bounds.
        let [r, size] = ctx.peek_words(self.root);
        // The durable size only sizes the buffer; the walk recounts.
        let mut nodes: Vec<Walked> = Vec::with_capacity(size.min(1 << 16) as usize);
        let mut stack = vec![(r, 0, NONE, 0, (u64::MIN, u64::MAX))];
        let mut valid = true;
        while let Some((n, parent, at, side, (lo, hi))) = stack.pop() {
            if n == 0 {
                continue;
            }
            let [key, l, r, p, color] = peek_node(ctx, n);
            if p != parent {
                ctx.recovery_write(fld(PmAddr::new(n), 3), parent);
            }
            valid &= (lo..=hi).contains(&key);
            let i = nodes.len();
            if let Some(up) = nodes.get_mut(at) {
                up.kids[side] = i;
            }
            stack.push((r, n, i, 1, (key.saturating_add(1), hi)));
            stack.push((l, n, i, 0, (lo, key.saturating_sub(1))));
            nodes.push(Walked {
                n,
                color,
                ..Walked::NIL
            });
        }
        if size != nodes.len() as u64 {
            ctx.recovery_write(fld(self.root, 1), nodes.len() as u64);
        }
        // Children follow their parent in the walk, so a reverse pass
        // meets both subtrees before their root. It checks the durable
        // colouring (no red-red, equal black heights) and fills the
        // black-height DP: a black node takes children of any colour and
        // equal height h to h + 1; a red one needs both black.
        for i in (0..nodes.len()).rev() {
            let [l, r] = nodes[i].kids.map(|k| *nodes.get(k).unwrap_or(&Walked::NIL));
            let node = &mut nodes[i];
            valid &= l.bh == r.bh && !(node.color == RED && (l.color == RED || r.color == RED));
            node.bh = l.bh + u64::from(node.color == BLACK);
            let (l, r) = (l.heights, r.heights);
            node.heights = Heights {
                black: ((l.black | l.red) & (r.black | r.red)) << 1,
                red: l.black & r.black,
            };
        }
        let Some(root) = nodes.first() else {
            return;
        };
        if valid && root.color != RED {
            return;
        }
        // Lost deferred colours: recolour top-down from a black root at
        // the smallest black height it supports. A red parent forces
        // black children; a black one prefers black when feasible.
        let black = root.heights.black;
        assert!(black != 0, "no black-root colouring fits the shape");
        let mut want = vec![(BLACK, 0); nodes.len()];
        want[0].1 = black.trailing_zeros().into();
        for (i, node) in nodes.iter().enumerate() {
            let (color, bh) = want[i];
            if node.color != color {
                ctx.recovery_write(fld(PmAddr::new(node.n), 4), color);
            }
            let child_bh = if color == BLACK { bh - 1 } else { bh };
            for k in node.kids.into_iter().filter(|&k| k != NONE) {
                let feas = nodes[k].heights;
                let is_black = color == RED || feas.supports(BLACK, child_bh);
                let child = if is_black { BLACK } else { RED };
                debug_assert!(feas.supports(child, child_bh), "DP inconsistency");
                want[k] = (child, child_bh);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::{value_for, ycsb_load};
    use slpmt_core::Scheme;
    use std::collections::BTreeMap;

    fn fresh(source: AnnotationSource) -> (PmContext, Rbtree) {
        let mut ctx = PmContext::new(Scheme::Slpmt, AnnotationTable::new());
        let t = Rbtree::new(&mut ctx, 32, source);
        (ctx, t)
    }

    #[test]
    fn insert_lookup_and_invariants() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        for op in ycsb_load(200, 32, 1) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
        assert_eq!(t.len(&ctx), 200);
        for op in ycsb_load(200, 32, 1) {
            assert_eq!(t.value_of(&ctx, op.key).unwrap(), op.value);
        }
    }

    #[test]
    fn sequential_keys_stay_balanced() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let v = value_for(1, 32);
        for k in 1..=128u64 {
            t.insert(&mut ctx, k, &v);
        }
        t.check_invariants(&ctx).unwrap();
        // A red-black tree of 128 sequential inserts must be shallow.
        let mut max_depth = 0;
        fn depth(ctx: &PmContext, n: u64, d: usize, max: &mut usize) {
            if n == 0 {
                *max = (*max).max(d);
                return;
            }
            let a = PmAddr::new(n);
            depth(ctx, ctx.peek(fld(a, 1)), d + 1, max);
            depth(ctx, ctx.peek(fld(a, 2)), d + 1, max);
        }
        depth(&ctx, ctx.peek(fld(t.root, 0)), 0, &mut max_depth);
        assert!(max_depth <= 2 * 8, "depth {max_depth} too deep for RB tree");
    }

    #[test]
    fn crash_recovery_rebuilds_parents_and_colors() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        let ops = ycsb_load(120, 32, 2);
        for op in &ops {
            t.insert(&mut ctx, op.key, &op.value);
        }
        ctx.crash_and_recover();
        t.recover(&mut ctx);
        ctx.gc(&t.reachable(&ctx));
        t.check_invariants(&ctx).unwrap();
        assert_eq!(t.len(&ctx), 120);
        for op in &ops {
            assert_eq!(t.value_of(&ctx, op.key).unwrap(), value_for(op.key, 32));
        }
        // Still insertable after recovery.
        for op in ycsb_load(30, 32, 99) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
    }

    /// A recovered tree of 120 keys whose caches are empty, so
    /// `recovery_write` can corrupt it.
    fn recovered() -> (PmContext, Rbtree) {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        for op in ycsb_load(120, 32, 6) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        ctx.crash_and_recover();
        t.recover(&mut ctx);
        t.check_invariants(&ctx).unwrap();
        (ctx, t)
    }

    /// A red node with a child, and that child.
    fn red_with_child(ctx: &PmContext, t: &Rbtree) -> (u64, u64) {
        let mut found = None;
        t.for_each(ctx, |n, [_, l, r, _, c]| {
            if c == RED && found.is_none() {
                found = [l, r].into_iter().find(|&ch| ch != 0).map(|ch| (n, ch));
            }
        });
        found.expect("a red node with a child")
    }

    #[test]
    fn swapped_children_break_bst_order() {
        let (mut ctx, t) = recovered();
        let r = PmAddr::new(ctx.peek(fld(t.root, 0)));
        let [l, rt] = ctx.peek_words(fld(r, 1));
        ctx.recovery_write(fld(r, 1), rt);
        ctx.recovery_write(fld(r, 2), l);
        let err = t.check_invariants(&ctx).unwrap_err();
        assert!(err.starts_with("BST violation: key "), "{err}");
    }

    #[test]
    fn wrong_parent_pointer_is_reported() {
        let (mut ctx, t) = recovered();
        let r = ctx.peek(fld(t.root, 0));
        let l = peek_node(&ctx, r)[1];
        ctx.recovery_write(fld(PmAddr::new(l), 3), l);
        let err = t.check_invariants(&ctx).unwrap_err();
        assert_eq!(
            err,
            format!("parent pointer of {l:#x} is {l:#x}, expected {r:#x}")
        );
    }

    #[test]
    fn red_child_under_red_node_is_reported() {
        let (mut ctx, t) = recovered();
        let (red, child) = red_with_child(&ctx, &t);
        ctx.recovery_write(fld(PmAddr::new(child), 4), RED);
        let err = t.check_invariants(&ctx).unwrap_err();
        assert_eq!(err, format!("red-red violation at {red:#x}"));
    }

    #[test]
    fn blackened_red_node_unbalances_black_height() {
        let (mut ctx, t) = recovered();
        let (red, _) = red_with_child(&ctx, &t);
        let parent = peek_node(&ctx, red)[3];
        ctx.recovery_write(fld(PmAddr::new(red), 4), BLACK);
        let err = t.check_invariants(&ctx).unwrap_err();
        assert_eq!(err, format!("black-height mismatch at {parent:#x}"));
    }

    impl Rbtree {
        /// The recolouring DP as it was before the memo was shared: a
        /// set of (colour, black-height) pairs per node, recomputed for
        /// both children at every node.
        fn feasible_pairs(
            &self,
            ctx: &PmContext,
            n: u64,
            memo: &mut BTreeMap<u64, Vec<(u64, u64)>>,
        ) -> Vec<(u64, u64)> {
            if n == 0 {
                return vec![(BLACK, 1)];
            }
            if let Some(v) = memo.get(&n) {
                return v.clone();
            }
            let a = PmAddr::new(n);
            let l = self.feasible_pairs(ctx, ctx.peek(fld(a, 1)), memo);
            let r = self.feasible_pairs(ctx, ctx.peek(fld(a, 2)), memo);
            let mut out = Vec::new();
            for &(lc, lh) in &l {
                for &(rc, rh) in &r {
                    if lh != rh {
                        continue;
                    }
                    out.push((BLACK, lh + 1));
                    if lc == BLACK && rc == BLACK {
                        out.push((RED, lh));
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            memo.insert(n, out.clone());
            out
        }

        fn assign_colors_per_node_memo(&self, ctx: &mut PmContext, n: u64, color: u64, bh: u64) {
            if n == 0 {
                return;
            }
            let a = PmAddr::new(n);
            ctx.recovery_write(fld(a, 4), color);
            let child_bh = if color == BLACK { bh - 1 } else { bh };
            let mut memo = BTreeMap::new();
            for dir in [1u64, 2] {
                let c = ctx.peek(fld(a, dir));
                let feas = self.feasible_pairs(ctx, c, &mut memo);
                let child_color = if color == RED || feas.contains(&(BLACK, child_bh)) {
                    BLACK
                } else {
                    RED
                };
                self.assign_colors_per_node_memo(ctx, c, child_color, child_bh);
            }
        }

        fn recolor_tree_per_node_memo(&self, ctx: &mut PmContext) {
            let r = ctx.peek(fld(self.root, 0));
            let feas = self.feasible_pairs(ctx, r, &mut BTreeMap::new());
            let (_, bh) = *feas
                .iter()
                .find(|(c, _)| *c == BLACK)
                .expect("black root colouring");
            self.assign_colors_per_node_memo(ctx, r, BLACK, bh);
        }
    }

    /// Recovery's recolouring, one bit-mask DP shared by the whole walk,
    /// writes exactly the colours of the per-node-memo reference on
    /// SLPMT trees of 1–300 keys whose every colour word was lost.
    #[test]
    fn shared_memo_recolouring_matches_per_node_reference() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Manual);
        for (i, op) in ycsb_load(300, 32, 5).iter().enumerate() {
            t.insert(&mut ctx, op.key, &op.value);
            let (mut got, mut want) = (ctx.clone(), ctx.clone());
            let mut nodes = Vec::new();
            t.for_each(&ctx, |n, _| nodes.push(PmAddr::new(n)));
            for c in [&mut got, &mut want] {
                c.crash_and_recover();
                for &n in &nodes {
                    c.recovery_write(fld(n, 4), RED);
                }
            }
            let mut recovered = t.clone();
            recovered.recover(&mut got);
            t.recolor_tree_per_node_memo(&mut want);
            let keys = i + 1;
            for &n in &nodes {
                assert_eq!(
                    got.peek(fld(n, 4)),
                    want.peek(fld(n, 4)),
                    "{keys} keys: colour of node {n}"
                );
            }
            recovered
                .check_invariants(&got)
                .unwrap_or_else(|e| panic!("{keys} keys: {e}"));
        }
    }

    /// The black height of `n`'s subtree under the node headers in
    /// `img`, or `None` if its colours break a red-black rule.
    fn colour_height(img: &BTreeMap<u64, Vec<u64>>, n: u64, parent_red: bool) -> Option<u64> {
        if n == 0 {
            return Some(1);
        }
        let (l, r, c) = (img[&n][1], img[&n][2], img[&n][4]);
        if c == RED && parent_red {
            return None;
        }
        let lb = colour_height(img, l, c == RED)?;
        let rb = colour_height(img, r, c == RED)?;
        (lb == rb).then_some(lb + u64::from(c == BLACK))
    }

    /// Recovery writes only what the crash lost. A short delete-heavy
    /// trace crashes at every persist event; across `recover`, every
    /// word of every reachable block must stay, except the root's count
    /// and, where parents and colours are lazy (SLPMT, SLPMT-redo),
    /// each node's parent and colour. A valid durable colouring is
    /// kept; an invalid one becomes the per-node-memo reference's.
    #[test]
    fn recovery_writes_only_what_was_lost() {
        use crate::crashsweep::apply;
        use crate::ycsb::{ycsb_mix, MixSpec, MixedOp};
        let (load, mixed) = ycsb_mix(12, 24, 32, 11, &MixSpec::DELETE_HEAVY);
        let ops: Vec<MixedOp> = load.into_iter().map(MixedOp::Insert).chain(mixed).collect();
        let mut recoloured = 0;
        for scheme in [Scheme::Fg, Scheme::Slpmt, Scheme::SlpmtRedo] {
            let lazy = scheme != Scheme::Fg;
            let replay = |crash_at: Option<u64>| {
                let mut ctx = PmContext::new(scheme, AnnotationTable::new());
                let mut t = Rbtree::new(&mut ctx, 32, AnnotationSource::Manual);
                if let Some(k) = crash_at {
                    ctx.machine_mut().arm_crash_at_event(k);
                }
                for op in &ops {
                    apply(&mut t, &mut ctx, op);
                    if ctx.machine().crash_tripped() {
                        break;
                    }
                }
                (ctx, t)
            };
            let events = replay(None).0.machine().persist_event_count();
            for k in 0..events {
                let (mut ctx, mut t) = replay(Some(k));
                ctx.crash();
                ctx.recover();
                let blocks = t.reachable(&ctx);
                let (root, value_words) = (t.root, t.value_words);
                let words = |ctx: &PmContext| -> BTreeMap<u64, Vec<u64>> {
                    let len = |b| if b == root { 2 } else { 5 + value_words };
                    let block = |b: PmAddr| (0..len(b)).map(|i| ctx.peek(fld(b, i))).collect();
                    blocks.iter().map(|&b| (b.raw(), block(b))).collect()
                };
                let before = words(&ctx);
                let r = ctx.peek(fld(t.root, 0));
                let valid =
                    r == 0 || before[&r][4] != RED && colour_height(&before, r, false).is_some();
                let mut want = ctx.clone();
                t.recolor_tree_per_node_memo(&mut want);
                t.recover(&mut ctx);
                let at = format!("{scheme} k={k}");
                t.check_invariants(&ctx)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                for ((&b, old), new) in before.iter().zip(words(&ctx).values()) {
                    let node = b != root.raw();
                    for (i, (o, n)) in old.iter().zip(new).enumerate() {
                        let lost = if node {
                            lazy && (i == 3 || i == 4)
                        } else {
                            i == 1
                        };
                        assert!(o == n || lost, "{at}: word {i} of {b:#x}: {o} -> {n}");
                    }
                    if node {
                        let reference = want.peek(fld(PmAddr::new(b), 4));
                        let colour = if valid { old[4] } else { reference };
                        assert_eq!(new[4], colour, "{at}: colour of {b:#x}");
                    }
                }
                recoloured += usize::from(!valid);
            }
        }
        assert!(recoloured > 0, "no crash point lost a colour");
    }

    #[test]
    fn compiler_annotations_preserve_correctness() {
        let (mut ctx, mut t) = fresh(AnnotationSource::Compiler);
        for op in ycsb_load(100, 32, 3) {
            t.insert(&mut ctx, op.key, &op.value);
        }
        t.check_invariants(&ctx).unwrap();
        ctx.crash_and_recover();
        t.recover(&mut ctx);
        ctx.gc(&t.reachable(&ctx));
        t.check_invariants(&ctx).unwrap();
        assert_eq!(t.len(&ctx), 100);
    }

    #[test]
    fn compiler_finds_parent_pointer_misses_color() {
        let (table, _) = slpmt_annotate::analyze(&Rbtree::ir());
        assert!(table.get(sites::NODE_KEY).is_selective());
        assert_eq!(table.get(sites::PARENT_UPD), Annotation::Lazy);
        assert_eq!(
            table.get(sites::FIX_COLOR),
            Annotation::Plain,
            "colour is opaque"
        );
        assert_eq!(table.get(sites::LINK_CHILD), Annotation::Plain);
    }

    #[test]
    fn selective_logging_reduces_records() {
        let count = |source| {
            let (mut ctx, mut t) = fresh(source);
            for op in ycsb_load(50, 32, 4) {
                t.insert(&mut ctx, op.key, &op.value);
            }
            ctx.machine().stats().log_records_created
        };
        assert!(count(AnnotationSource::Manual) < count(AnnotationSource::None));
    }

    #[test]
    fn ir_is_valid() {
        assert!(Rbtree::ir().validate().is_ok());
    }
}
