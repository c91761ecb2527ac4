include Telemetry.Json
