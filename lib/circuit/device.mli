(** Circuit elements. Nodes are integers with [0] denoting ground;
    {!Netlist} interns symbolic names to indices. *)

type node = int

type t =
  | Resistor of { name : string; n_plus : node; n_minus : node; resistance : float }
  | Capacitor of { name : string; n_plus : node; n_minus : node; capacitance : float }
  | Inductor of { name : string; n_plus : node; n_minus : node; inductance : float }
  | Voltage_source of { name : string; n_plus : node; n_minus : node; waveform : Waveform.t }
  | Current_source of { name : string; n_plus : node; n_minus : node; waveform : Waveform.t }
      (** current flows from [n_plus] through the source to [n_minus] *)
  | Diode of { name : string; anode : node; cathode : node; params : Diode.params }
  | Mosfet of { name : string; drain : node; gate : node; source : node; params : Mosfet.params }
  | Bjt of { name : string; collector : node; base : node; emitter : node; params : Bjt.params }
  | Vccs of {
      name : string;
      out_plus : node;
      out_minus : node;
      in_plus : node;
      in_minus : node;
      gm : float;
    }  (** [i(out+ → out−) = gm · (v_in+ − v_in−)] *)
  | Multiplier of {
      name : string;
      out_plus : node;
      out_minus : node;
      a_plus : node;
      a_minus : node;
      b_plus : node;
      b_minus : node;
      gain : float;
    }  (** behavioral mixer core: [i(out+ → out−) = gain · v_a · v_b] *)

val name : t -> string

val needs_branch_current : t -> bool
(** True for devices that add an MNA branch-current unknown
    (voltage sources and inductors). *)

val is_linear : t -> bool
(** True for elements whose stamps do not depend on the circuit state
    (everything but diodes, MOSFETs, BJTs and multipliers). *)

val nodes : t -> node list
