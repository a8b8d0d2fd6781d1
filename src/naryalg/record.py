"""The base of the engine's report records.

A record is a plain class whose fields are the parameters of its
``__init__``, which stores each under its own name; records of one class
compare equal when their fields do, and print as their fields.  The
records are written without ``dataclasses``: importing it also loads
``inspect``, ``dis``, ``tokenize`` and ``ast``, and its decorator compiles
each class's methods at import, a cost every command would pay at start-up.
"""


class Record:
    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable, compared by value

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"
