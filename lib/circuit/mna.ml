type t = {
  netlist : Netlist.t;
  size : int;
  nodes : int;
  devices : Device.t array;
  branch : int array;  (* devices.(i)'s branch-current unknown, or -1 *)
  gmin : float;
}

(* Branch unknowns are resolved here, once: the per-point evaluators
   read [branch.(i)] instead of looking a device name up. *)
let build ?(gmin = 1e-12) netlist =
  let nodes = Netlist.num_nodes netlist in
  let devices = Array.of_list (Netlist.devices netlist) in
  let next = ref nodes in
  let branch =
    Array.map
      (fun d ->
        if Device.needs_branch_current d then begin
          let k = !next in
          incr next;
          k
        end
        else -1)
      devices
  in
  { netlist; size = !next; nodes; devices; branch; gmin }

let size m = m.size
let num_nodes m = m.nodes
let netlist m = m.netlist

let branch_index m name =
  let rec find i =
    if i = Array.length m.devices then raise Not_found
    else if m.branch.(i) >= 0 && Device.name m.devices.(i) = name then m.branch.(i)
    else find (i + 1)
  in
  find 0

let node_index m s =
  match Netlist.find_node m.netlist s with
  | Some 0 | None -> raise Not_found
  | Some k -> k - 1

let unknown_names m =
  let names =
    Array.init m.size (fun i -> if i < m.nodes then Netlist.node_name m.netlist (i + 1) else "")
  in
  Array.iteri
    (fun i k -> if k >= 0 then names.(k) <- Printf.sprintf "i(%s)" (Device.name m.devices.(i)))
    m.branch;
  names

let voltage m x s =
  match Netlist.find_node m.netlist s with
  | Some 0 -> 0.0
  | Some k -> x.(k - 1)
  | None -> invalid_arg (Printf.sprintf "Mna.voltage: unknown node %S" s)

let differential_voltage m x a b = voltage m x a -. voltage m x b

(* Node k's voltage lives at index k-1; ground contributes 0 and absorbs
   stamps silently. Inlined, as are the stamp helpers below: without
   flambda a float passed to or returned from a call is boxed. *)
let[@inline] v_of x n = if n = 0 then 0.0 else x.(n - 1)
let[@inline] add_node vec n value = if n > 0 then vec.(n - 1) <- vec.(n - 1) +. value

(* Stamp helpers for branch rows (already 0-based absolute indices). *)
let[@inline] add_row vec r value = vec.(r) <- vec.(r) +. value

let eval_f_into m x f =
  Array.fill f 0 m.size 0.0;
  (* gmin loading on node rows *)
  if m.gmin > 0.0 then
    for k = 0 to m.nodes - 1 do
      f.(k) <- f.(k) +. (m.gmin *. x.(k))
    done;
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Resistor { n_plus; n_minus; resistance; _ } ->
        let i = (v_of x n_plus -. v_of x n_minus) /. resistance in
        add_node f n_plus i;
        add_node f n_minus (-.i)
    | Device.Capacitor _ -> ()
    | Device.Inductor { n_plus; n_minus; _ } | Device.Voltage_source { n_plus; n_minus; _ } ->
        let k = m.branch.(d) in
        add_node f n_plus x.(k);
        add_node f n_minus (-.x.(k));
        add_row f k (v_of x n_plus -. v_of x n_minus)
    | Device.Current_source _ -> ()
    | Device.Diode { anode; cathode; params; _ } ->
        let v = v_of x anode -. v_of x cathode in
        let i = Diode.current params v in
        add_node f anode i;
        add_node f cathode (-.i)
    | Device.Mosfet { drain; gate; source; params; _ } ->
        let vgs = v_of x gate -. v_of x source in
        let vds = v_of x drain -. v_of x source in
        let op = Mosfet.evaluate params ~vgs ~vds in
        add_node f drain op.Mosfet.ids;
        add_node f source (-.op.Mosfet.ids)
    | Device.Bjt { collector; base; emitter; params; _ } ->
        let vbe = v_of x base -. v_of x emitter in
        let vbc = v_of x base -. v_of x collector in
        let op = Bjt.evaluate params ~vbe ~vbc in
        add_node f collector op.Bjt.ic;
        add_node f base op.Bjt.ib;
        add_node f emitter op.Bjt.ie
    | Device.Vccs { out_plus; out_minus; in_plus; in_minus; gm; _ } ->
        let i = gm *. (v_of x in_plus -. v_of x in_minus) in
        add_node f out_plus i;
        add_node f out_minus (-.i)
    | Device.Multiplier { out_plus; out_minus; a_plus; a_minus; b_plus; b_minus; gain; _ } ->
        let va = v_of x a_plus -. v_of x a_minus in
        let vb = v_of x b_plus -. v_of x b_minus in
        let i = gain *. va *. vb in
        add_node f out_plus i;
        add_node f out_minus (-.i)
  done

let eval_f m x =
  let f = Array.make m.size 0.0 in
  eval_f_into m x f;
  f

let eval_q_into m x q =
  Array.fill q 0 m.size 0.0;
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Capacitor { n_plus; n_minus; capacitance; _ } ->
        let charge = capacitance *. (v_of x n_plus -. v_of x n_minus) in
        add_node q n_plus charge;
        add_node q n_minus (-.charge)
    | Device.Inductor { inductance; _ } ->
        let k = m.branch.(d) in
        add_row q k (-.(inductance *. x.(k)))
    | Device.Diode { anode; cathode; params; _ } ->
        let v = v_of x anode -. v_of x cathode in
        let charge = Diode.charge params v in
        add_node q anode charge;
        add_node q cathode (-.charge)
    | Device.Mosfet { drain; gate; source; params; _ } ->
        let qgs = params.Mosfet.cgs *. (v_of x gate -. v_of x source) in
        let qgd = params.Mosfet.cgd *. (v_of x gate -. v_of x drain) in
        add_node q gate (qgs +. qgd);
        add_node q source (-.qgs);
        add_node q drain (-.qgd)
    | Device.Bjt { collector; base; emitter; params; _ } ->
        let qbe = params.Bjt.cbe *. (v_of x base -. v_of x emitter) in
        let qbc = params.Bjt.cbc *. (v_of x base -. v_of x collector) in
        add_node q base (qbe +. qbc);
        add_node q emitter (-.qbe);
        add_node q collector (-.qbc)
    | Device.Resistor _ | Device.Voltage_source _ | Device.Current_source _ | Device.Vccs _
    | Device.Multiplier _ ->
        ()
  done

let eval_q m x =
  let q = Array.make m.size 0.0 in
  eval_q_into m x q;
  q

(* ------------------------------------------------------------------ *)
(* Jacobian stamps                                                     *)
(* ------------------------------------------------------------------ *)

(* A stamp is (row, column, value) in 0-based unknown indices, with -1
   for a ground terminal. [stamp_jacobians] is the one description of
   every device's stamps; what happens to each stamp is up to its sink.
   The stream is the same sequence of (row, column) pairs at every
   iterate — only the values move — so position k in the stream names
   one stamp, and a slot plan recorded once serves every later refresh.

   [slot] codes: a CSR value index, [ground] (the stamp is dropped), or
   [outside] (the frozen pattern has no entry for it). *)
let outside = -1 (* as [Csr.slot] reports a missing entry *)
let ground = -2

type slots = {
  codes : int array;  (* one slot code per stamp, in stream order *)
  mutable target : Sparse.Csr.t;  (* the matrix being refreshed *)
  mutable pos : int;
  mutable fits : bool;  (* no nonzero stamp fell outside the pattern *)
}

type sink =
  | Coo of Sparse.Coo.t  (* assemble triplets: [jacobians] *)
  | Record of { pattern : Sparse.Csr.t; mutable codes : int list }  (* plan a pattern *)
  | Slots of slots  (* refresh values in place *)

let slot_of (a : Sparse.Csr.t) r c = if r < 0 || c < 0 then ground else Sparse.Csr.slot a r c

(* Zero-valued stamps are skipped on every path, as [Coo.add] skips
   them, and each slot sums its stamps in stream order — the order
   [Csr.of_coo] merges duplicates in — so a refresh is bitwise equal to
   a rebuild. Inlined so the stamp value stays an unboxed float. *)
let[@inline] emit sink r c v =
  match sink with
  | Coo coo -> if r >= 0 && c >= 0 then Sparse.Coo.add coo r c v
  | Record rc -> rc.codes <- slot_of rc.pattern r c :: rc.codes
  | Slots s ->
      let slot = s.codes.(s.pos) in
      s.pos <- s.pos + 1;
      if v <> 0.0 then
        if slot >= 0 then begin
          let values = s.target.Sparse.Csr.values in
          values.(slot) <- values.(slot) +. v
        end
        else if slot = outside then s.fits <- false

(* A two-terminal conductance/capacitance between unknowns p and n. *)
let[@inline] stamp_pair sink p n v =
  emit sink p p v;
  emit sink p n (-.v);
  emit sink n p (-.v);
  emit sink n n v

(* Node k is unknown k-1; ground becomes -1. *)
let u n = n - 1

(* The branch row k of a voltage source or inductor and its KCL columns:
   rows n± get ±i_k, row k gets v+ − v−. *)
let[@inline] stamp_branch sink k n_plus n_minus =
  emit sink (u n_plus) k 1.0;
  emit sink (u n_minus) k (-1.0);
  emit sink k (u n_plus) 1.0;
  emit sink k (u n_minus) (-1.0)

(* One BJT terminal row by the chain rule with vbe = vb − ve,
   vbc = vb − vc. *)
let[@inline] stamp_bjt_row sink row ~base ~emitter ~collector d_vbe d_vbc =
  emit sink row (u base) (d_vbe +. d_vbc);
  emit sink row (u emitter) (-.d_vbe);
  emit sink row (u collector) (-.d_vbc)

let[@inline] stamp_multiplier_row sink row ~a_plus ~a_minus ~b_plus ~b_minus ga gb =
  emit sink row (u a_plus) gb;
  emit sink row (u a_minus) (-.gb);
  emit sink row (u b_plus) ga;
  emit sink row (u b_minus) (-.ga)

let stamp_jacobians m x ~g ~c =
  if m.gmin > 0.0 then
    for k = 0 to m.nodes - 1 do
      emit g k k m.gmin
    done;
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Resistor { n_plus; n_minus; resistance; _ } ->
        stamp_pair g (u n_plus) (u n_minus) (1.0 /. resistance)
    | Device.Capacitor { n_plus; n_minus; capacitance; _ } ->
        stamp_pair c (u n_plus) (u n_minus) capacitance
    | Device.Inductor { n_plus; n_minus; inductance; _ } ->
        let k = m.branch.(d) in
        (* KCL rows get ±i_l; branch row is v+ − v− with flux −L·i. *)
        stamp_branch g k n_plus n_minus;
        emit c k k (-.inductance)
    | Device.Voltage_source { n_plus; n_minus; _ } -> stamp_branch g m.branch.(d) n_plus n_minus
    | Device.Current_source _ -> ()
    | Device.Diode { anode; cathode; params; _ } ->
        let v = v_of x anode -. v_of x cathode in
        stamp_pair g (u anode) (u cathode) (Diode.conductance params v);
        if params.Diode.junction_cap > 0.0 then
          stamp_pair c (u anode) (u cathode) params.Diode.junction_cap
    | Device.Mosfet { drain; gate; source; params; _ } ->
        let vgs = v_of x gate -. v_of x source in
        let vds = v_of x drain -. v_of x source in
        let op = Mosfet.evaluate params ~vgs ~vds in
        let gm = op.Mosfet.gm and gds = op.Mosfet.gds in
        let nd = u drain and ng = u gate and ns = u source in
        (* ids rows: +drain, −source; columns d, g, s. *)
        emit g nd nd gds;
        emit g nd ng gm;
        emit g nd ns (-.(gm +. gds));
        emit g ns nd (-.gds);
        emit g ns ng (-.gm);
        emit g ns ns (gm +. gds);
        stamp_pair c ng ns params.Mosfet.cgs;
        stamp_pair c ng nd params.Mosfet.cgd
    | Device.Bjt { collector; base; emitter; params; _ } ->
        let vbe = v_of x base -. v_of x emitter in
        let vbc = v_of x base -. v_of x collector in
        let op = Bjt.evaluate params ~vbe ~vbc in
        stamp_bjt_row g (u collector) ~base ~emitter ~collector op.Bjt.d_ic_d_vbe
          op.Bjt.d_ic_d_vbc;
        stamp_bjt_row g (u base) ~base ~emitter ~collector op.Bjt.d_ib_d_vbe op.Bjt.d_ib_d_vbc;
        stamp_bjt_row g (u emitter) ~base ~emitter ~collector
          (-.(op.Bjt.d_ic_d_vbe +. op.Bjt.d_ib_d_vbe))
          (-.(op.Bjt.d_ic_d_vbc +. op.Bjt.d_ib_d_vbc));
        stamp_pair c (u base) (u emitter) params.Bjt.cbe;
        stamp_pair c (u base) (u collector) params.Bjt.cbc
    | Device.Vccs { out_plus; out_minus; in_plus; in_minus; gm; _ } ->
        emit g (u out_plus) (u in_plus) gm;
        emit g (u out_plus) (u in_minus) (-.gm);
        emit g (u out_minus) (u in_plus) (-.gm);
        emit g (u out_minus) (u in_minus) gm
    | Device.Multiplier { out_plus; out_minus; a_plus; a_minus; b_plus; b_minus; gain; _ } ->
        let va = v_of x a_plus -. v_of x a_minus in
        let vb = v_of x b_plus -. v_of x b_minus in
        stamp_multiplier_row g (u out_plus) ~a_plus ~a_minus ~b_plus ~b_minus (gain *. va)
          (gain *. vb);
        stamp_multiplier_row g (u out_minus) ~a_plus ~a_minus ~b_plus ~b_minus (-.gain *. va)
          (-.gain *. vb)
  done

let jacobians m x =
  let g_coo = Sparse.Coo.create ~capacity:(8 * m.size) m.size m.size in
  let c_coo = Sparse.Coo.create ~capacity:(4 * m.size) m.size m.size in
  stamp_jacobians m x ~g:(Coo g_coo) ~c:(Coo c_coo);
  (Sparse.Csr.of_coo g_coo, Sparse.Csr.of_coo c_coo)

(* The slot plan of one frozen (G, C) pattern pair. *)
type plan = { g_pattern : Sparse.Csr.t; c_pattern : Sparse.Csr.t; g_slots : slots; c_slots : slots }

let plan_for m x ~g ~c =
  let record pattern = Record { pattern; codes = [] } in
  let slots_of sink =
    match sink with
    | Record { pattern; codes } ->
        { codes = Array.of_list (List.rev codes); target = pattern; pos = 0; fits = true }
    | Coo _ | Slots _ -> assert false
  in
  let rg = record g and rc = record c in
  stamp_jacobians m x ~g:rg ~c:rc;
  { g_pattern = g; c_pattern = c; g_slots = slots_of rg; c_slots = slots_of rc }

(* Distinct patterns a refresher keeps plans for. Grid points share a
   few patterns (a drift-rebuilt point carries its own), so nearly every
   lookup hits the last plan used. A circuit whose points cycle through
   more patterns than this re-plans: still correct, only slower. *)
let max_plans = 8

(* Numeric-refresh path for the symbolic/numeric assembly split: each
   frozen (G, C) pattern pair gets one slot plan, built once, and a
   refresh zero-fills the values and adds each nonzero stamp straight
   into its CSR slot. Pattern drift (a nonzero stamp where the frozen
   pattern has no entry — a stamp that was exactly 0.0 at the iterate
   the pattern came from) is reported as [false] for the caller to
   rebuild from scratch. *)
let jacobian_refresher m () =
  let plans = Array.make max_plans None in
  let count = ref 0 and last = ref 0 in
  let matches i ~g ~c =
    match plans.(i) with
    | Some p -> Sparse.Csr.same_pattern p.g_pattern g && Sparse.Csr.same_pattern p.c_pattern c
    | None -> false
  in
  let find x ~g ~c =
    if not (matches !last ~g ~c) then begin
      let n = min !count max_plans in
      let i = ref 0 in
      while !i < n && not (matches !i ~g ~c) do
        incr i
      done;
      if !i < n then last := !i
      else begin
        last := !count mod max_plans;
        plans.(!last) <- Some (plan_for m x ~g ~c);
        incr count
      end
    end;
    Option.get plans.(!last)
  in
  let start s (a : Sparse.Csr.t) =
    Array.fill a.Sparse.Csr.values 0 (Array.length a.Sparse.Csr.values) 0.0;
    s.target <- a;
    s.pos <- 0;
    s.fits <- true
  in
  fun x ~g ~c ->
    g.Sparse.Csr.rows = m.size
    && c.Sparse.Csr.rows = m.size
    &&
    let p = find x ~g ~c in
    start p.g_slots g;
    start p.c_slots c;
    stamp_jacobians m x ~g:(Slots p.g_slots) ~c:(Slots p.c_slots);
    p.g_slots.fits && p.c_slots.fits

let source_with m ~phase_of =
  let b = Array.make m.size 0.0 in
  Array.iteri
    (fun i d ->
      match d with
      | Device.Voltage_source { waveform; _ } ->
          add_row b m.branch.(i) (Waveform.eval_with ~phase_of waveform)
      | Device.Current_source { n_plus; n_minus; waveform; _ } ->
          (* Current flows n_plus → n_minus through the source, so it
             leaves the circuit at n_plus: b(n+) = −I, b(n−) = +I. *)
          let i = Waveform.eval_with ~phase_of waveform in
          add_node b n_plus (-.i);
          add_node b n_minus i
      | Device.Resistor _ | Device.Capacitor _ | Device.Inductor _ | Device.Diode _
      | Device.Mosfet _ | Device.Bjt _ | Device.Vccs _ | Device.Multiplier _ ->
          ())
    m.devices;
  b

let source_frequencies m =
  let add acc f = if List.mem f acc then acc else f :: acc in
  List.fold_left
    (fun acc d ->
      match d with
      | Device.Voltage_source { waveform; _ } | Device.Current_source { waveform; _ } ->
          List.fold_left add acc (Waveform.frequencies waveform)
      | Device.Resistor _ | Device.Capacitor _ | Device.Inductor _ | Device.Diode _
      | Device.Mosfet _ | Device.Bjt _ | Device.Vccs _ | Device.Multiplier _ ->
          acc)
    [] (Netlist.devices m.netlist)

let dae m =
  {
    Numeric.Dae.size = m.size;
    eval_f = eval_f m;
    eval_q = eval_q m;
    jacobians = jacobians m;
    source = (fun t -> source_with m ~phase_of:(fun freq -> freq *. t));
    fast =
      Some
        {
          Numeric.Dae.eval_f_into = eval_f_into m;
          eval_q_into = eval_q_into m;
          jacobian_refresher = jacobian_refresher m;
        };
  }
